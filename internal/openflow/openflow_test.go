package openflow

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMatchCovers(t *testing.T) {
	cases := []struct {
		m    Match
		p    PacketMeta
		want bool
	}{
		{MatchAll, PacketMeta{InPort: 3, SrcHost: 9, DstHost: 4, Tag: 2, Proto: 6}, true},
		{Match{InPort: 1, SrcHost: Any, DstHost: Any, Tag: Any}, PacketMeta{InPort: 1}, true},
		{Match{InPort: 1, SrcHost: Any, DstHost: Any, Tag: Any}, PacketMeta{InPort: 2}, false},
		{Match{SrcHost: 5, DstHost: Any, Tag: Any}, PacketMeta{SrcHost: 5}, true},
		{Match{SrcHost: 5, DstHost: Any, Tag: Any}, PacketMeta{SrcHost: 6}, false},
		{Match{SrcHost: Any, DstHost: 7, Tag: Any}, PacketMeta{DstHost: 7}, true},
		{Match{SrcHost: Any, DstHost: 7, Tag: Any}, PacketMeta{DstHost: 8}, false},
		{Match{SrcHost: Any, DstHost: Any, Tag: 1}, PacketMeta{Tag: 1}, true},
		{Match{SrcHost: Any, DstHost: Any, Tag: 1}, PacketMeta{Tag: 0}, false},
		{Match{SrcHost: Any, DstHost: Any, Tag: Any, Proto: 17}, PacketMeta{Proto: 17}, true},
		{Match{SrcHost: Any, DstHost: Any, Tag: Any, Proto: 17}, PacketMeta{Proto: 6}, false},
	}
	for i, c := range cases {
		if got := c.m.Covers(c.p); got != c.want {
			t.Errorf("case %d: Covers(%v, %v) = %v, want %v", i, c.m, c.p, got, c.want)
		}
	}
}

func TestTablePriorityOrder(t *testing.T) {
	var tbl Table
	lo := FlowEntry{Priority: 1, Match: MatchAll, Actions: []Action{{Type: Drop}}}
	hi := FlowEntry{Priority: 10, Match: Match{InPort: 1, SrcHost: Any, DstHost: Any, Tag: Any}, Actions: []Action{{Type: Output, Port: 2}}}
	if err := tbl.Add(lo); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(hi); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(PacketMeta{InPort: 1})
	if e == nil || e.Priority != 10 {
		t.Fatalf("lookup chose %v, want the priority-10 entry", e)
	}
	e = tbl.Lookup(PacketMeta{InPort: 2})
	if e == nil || e.Priority != 1 {
		t.Fatalf("lookup chose %v, want the catch-all", e)
	}
}

func TestTableStableTieBreak(t *testing.T) {
	var tbl Table
	a := FlowEntry{Priority: 5, Match: MatchAll, Actions: []Action{{Type: Output, Port: 1}}}
	b := FlowEntry{Priority: 5, Match: MatchAll, Actions: []Action{{Type: Output, Port: 2}}}
	_ = tbl.Add(a)
	_ = tbl.Add(b)
	e := tbl.Lookup(PacketMeta{})
	if e.Actions[0].Port != 1 {
		t.Errorf("tie broke to port %d, want earliest-installed (1)", e.Actions[0].Port)
	}
}

func TestTableCapacity(t *testing.T) {
	tbl := Table{Capacity: 2, owner: "sw1"}
	for i := 0; i < 2; i++ {
		if err := tbl.Add(FlowEntry{Priority: i, Match: MatchAll}); err != nil {
			t.Fatal(err)
		}
	}
	err := tbl.Add(FlowEntry{Priority: 9, Match: MatchAll})
	var full *ErrTableFull
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	if full.Capacity != 2 || full.Switch != "sw1" {
		t.Errorf("ErrTableFull fields = %+v", full)
	}
}

func TestRemoveCookie(t *testing.T) {
	var tbl Table
	for i := 0; i < 5; i++ {
		cookie := uint64(i % 2)
		_ = tbl.Add(FlowEntry{Priority: i, Match: MatchAll, Cookie: cookie})
	}
	removed := tbl.RemoveCookie(0)
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	if tbl.Len() != 2 {
		t.Errorf("len = %d, want 2", tbl.Len())
	}
	for _, e := range tbl.Entries() {
		if e.Cookie != 1 {
			t.Errorf("entry with cookie %d survived", e.Cookie)
		}
	}
}

func TestSwitchProcessForwardAndCount(t *testing.T) {
	sw := NewSwitch("s1", 8, 0)
	err := sw.Table.Add(FlowEntry{
		Priority: 10,
		Match:    Match{InPort: 1, SrcHost: Any, DstHost: 42, Tag: Any},
		Actions:  []Action{{Type: Output, Port: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd := sw.Process(PacketMeta{InPort: 1, DstHost: 42, Tag: 0})
	if !fwd.Matched || fwd.Dropped || fwd.OutPort != 5 {
		t.Fatalf("fwd = %+v, want output 5", fwd)
	}
}

// TestFlowEntrySize pins FlowEntry at 88 bytes on 64-bit targets: a
// table keeps one per installed rule, so a field added to every entry
// shows up in every deployment's footprint.
func TestFlowEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(FlowEntry{}); got != 88 {
		t.Errorf("FlowEntry is %d bytes, want 88", got)
	}
}

func TestSwitchTableMissDrops(t *testing.T) {
	sw := NewSwitch("s1", 4, 0)
	fwd := sw.Process(PacketMeta{InPort: 2, DstHost: 9})
	if fwd.Matched || fwd.OutPort != 0 {
		t.Fatalf("miss produced forwarding %+v", fwd)
	}
}

func TestSetTagAction(t *testing.T) {
	sw := NewSwitch("s1", 4, 0)
	_ = sw.Table.Add(FlowEntry{
		Priority: 5,
		Match:    Match{InPort: 1, SrcHost: Any, DstHost: Any, Tag: 0},
		Actions:  []Action{{Type: SetTag, Tag: 1}, {Type: Output, Port: 3}},
	})
	fwd := sw.Process(PacketMeta{InPort: 1, Tag: 0})
	if fwd.Tag != 1 || fwd.OutPort != 3 {
		t.Fatalf("fwd = %+v, want tag 1 out 3", fwd)
	}
}

func TestDropAction(t *testing.T) {
	sw := NewSwitch("s1", 4, 0)
	_ = sw.Table.Add(FlowEntry{Priority: 5, Match: MatchAll, Actions: []Action{{Type: Drop}}})
	fwd := sw.Process(PacketMeta{InPort: 1})
	if !fwd.Matched || !fwd.Dropped {
		t.Fatalf("fwd = %+v, want matched drop", fwd)
	}
}

func TestEntryWithoutOutputDrops(t *testing.T) {
	sw := NewSwitch("s1", 4, 0)
	_ = sw.Table.Add(FlowEntry{Priority: 5, Match: MatchAll, Actions: []Action{{Type: SetTag, Tag: 7}}})
	fwd := sw.Process(PacketMeta{InPort: 1})
	if !fwd.Dropped {
		t.Error("entry with no Output action must drop")
	}
}

func TestDumpAndStrings(t *testing.T) {
	sw := NewSwitch("s1", 4, 100)
	_ = sw.Table.Add(FlowEntry{
		Priority: 3,
		Match:    Match{InPort: 2, SrcHost: 1, DstHost: 9, Tag: 0, Proto: 6},
		Actions:  []Action{{Type: SetTag, Tag: 1}, {Type: Output, Port: 4}},
	})
	d := sw.Dump()
	for _, want := range []string{"switch s1", "in:2", "dst:9", "set_tag:1", "output:4", "prio=3"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	if MatchAll.String() != "*" {
		t.Errorf("MatchAll string = %q", MatchAll.String())
	}
	if (Action{Type: Drop}).String() != "drop" {
		t.Error("drop action string")
	}
}

// Property: Lookup always returns an entry whose priority is maximal
// among covering entries.
func TestQuickLookupIsMaxPriority(t *testing.T) {
	f := func(prios []uint8, inPort uint8) bool {
		var tbl Table
		for _, p := range prios {
			m := MatchAll
			if p%3 == 0 {
				m.InPort = int(p%4) + 1
			}
			_ = tbl.Add(FlowEntry{Priority: int(p), Match: m})
		}
		pkt := PacketMeta{InPort: int(inPort%4) + 1}
		got := tbl.Lookup(pkt)
		best := -1
		for _, e := range tbl.Entries() {
			if e.Match.Covers(pkt) && e.Priority > best {
				best = e.Priority
			}
		}
		if best == -1 {
			return got == nil
		}
		return got != nil && got.Priority == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: wildcard monotonicity — if a fully specified match covers a
// packet, widening any field to Any still covers it.
func TestQuickWildcardMonotone(t *testing.T) {
	f := func(in, src, dst, tag uint8) bool {
		p := PacketMeta{InPort: int(in)%8 + 1, SrcHost: int(src), DstHost: int(dst), Tag: int(tag) % 4}
		exact := Match{InPort: p.InPort, SrcHost: p.SrcHost, DstHost: p.DstHost, Tag: p.Tag}
		if !exact.Covers(p) {
			return false
		}
		widened := []Match{
			{InPort: 0, SrcHost: p.SrcHost, DstHost: p.DstHost, Tag: p.Tag},
			{InPort: p.InPort, SrcHost: Any, DstHost: p.DstHost, Tag: p.Tag},
			{InPort: p.InPort, SrcHost: p.SrcHost, DstHost: Any, Tag: p.Tag},
			{InPort: p.InPort, SrcHost: p.SrcHost, DstHost: p.DstHost, Tag: Any},
		}
		for _, w := range widened {
			if !w.Covers(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	var tbl Table
	for i := 0; i < 300; i++ {
		_ = tbl.Add(FlowEntry{
			Priority: 10,
			Match:    Match{InPort: i%32 + 1, SrcHost: Any, DstHost: i, Tag: Any},
			Actions:  []Action{{Type: Output, Port: i%32 + 1}},
		})
	}
	// Query an installed (in-port, dst) combination.
	pkt := PacketMeta{InPort: 250%32 + 1, DstHost: 250}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(pkt) == nil {
			b.Fatal("miss")
		}
	}
}
