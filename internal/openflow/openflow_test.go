package openflow

import (
	"errors"
	"math"
	"strings"
	"sync"
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

// TestLookupWildcardAgainstExact: a higher-priority dst-wildcard entry
// beats a lower-priority exact-destination entry, and at equal priority
// the first-installed entry wins, whichever of the two it is.
func TestLookupWildcardAgainstExact(t *testing.T) {
	tab := &Table{}
	exact := FlowEntry{Priority: 1, Match: Match{SrcHost: Any, DstHost: 5, Tag: Any},
		Actions: []Action{{Type: Output, Port: 1}}}
	wild := FlowEntry{Priority: 2, Match: Match{SrcHost: Any, DstHost: Any, Tag: Any},
		Actions: []Action{{Type: Output, Port: 2}}}
	if err := tab.Add(exact); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(wild); err != nil {
		t.Fatal(err)
	}
	got := tab.Lookup(PacketMeta{DstHost: 5, SrcHost: 0})
	if got == nil || got.Actions[0].Port != 2 {
		t.Fatalf("high-priority wildcard should win, got %v", got)
	}
	tab2 := &Table{}
	wild.Priority = 1
	if err := tab2.Add(wild); err != nil {
		t.Fatal(err)
	}
	if err := tab2.Add(exact); err != nil {
		t.Fatal(err)
	}
	got = tab2.Lookup(PacketMeta{DstHost: 5, SrcHost: 0})
	if got == nil || got.Actions[0].Port != 2 {
		t.Fatalf("first-installed tie-break broken, got %v", got)
	}
}

func TestTableCapacity(t *testing.T) {
	tbl := Table{Capacity: 2, owner: "sw1"}
	for i := int32(0); i < 2; i++ {
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
	for i := int32(0); i < 5; i++ {
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

// TestFlowEntrySize pins FlowEntry at 64 bytes on 64-bit targets (88
// while its fields were int) and Action at 12: a table keeps one entry
// per installed rule and about two actions per entry, so a field added
// to either, or widened, shows up in every deployment's footprint.
func TestFlowEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Action{}); got != 12 {
		t.Errorf("Action is %d bytes, want 12", got)
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the entry size is pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(FlowEntry{}); got != 64 {
		t.Errorf("FlowEntry is %d bytes, want 64", got)
	}
}

// TestInstallRenumbersBeforeSeqWraps: a table whose install counter is
// about to pass the int32 range renumbers its entries instead of
// wrapping, so entries installed after that still sort after the
// earlier ones of their priority.
func TestInstallRenumbersBeforeSeqWraps(t *testing.T) {
	var tbl Table
	for i := int32(1); i <= 3; i++ {
		if err := tbl.Add(FlowEntry{Priority: 10, Match: MatchAll, Actions: []Action{{Type: Output, Port: i}}}); err != nil {
			t.Fatal(err)
		}
	}
	tbl.nextSeq = math.MaxInt32 - 1
	for i := int32(4); i <= 6; i++ {
		if err := tbl.Add(FlowEntry{Priority: 10, Match: MatchAll, Actions: []Action{{Type: Output, Port: i}}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range tbl.Entries() {
		if e.Actions[0].Port != int32(i+1) {
			t.Fatalf("Entries()[%d] is install #%d, want #%d", i, e.Actions[0].Port, i+1)
		}
	}
	if got := tbl.Lookup(PacketMeta{}); got.Actions[0].Port != 1 {
		t.Errorf("Lookup returns install #%d, want the first, #1", got.Actions[0].Port)
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
				m.InPort = int32(p%4) + 1
			}
			_ = tbl.Add(FlowEntry{Priority: int32(p), Match: m})
		}
		pkt := PacketMeta{InPort: int(inPort%4) + 1}
		got := tbl.Lookup(pkt)
		best := int32(-1)
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
		exact := Match{InPort: int32(in)%8 + 1, SrcHost: int32(src), DstHost: int32(dst), Tag: int32(tag) % 4}
		p := PacketMeta{InPort: int(exact.InPort), SrcHost: int(exact.SrcHost), DstHost: int(exact.DstHost), Tag: int(exact.Tag)}
		if !exact.Covers(p) {
			return false
		}
		widened := []Match{exact, exact, exact, exact}
		widened[0].InPort = 0
		widened[1].SrcHost = Any
		widened[2].DstHost = Any
		widened[3].Tag = Any
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
	for i := int32(0); i < 300; i++ {
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

// TestLookupNeedsNoPrime holds Lookup to a pure read: once the last
// Install or RemoveCookie has returned, goroutines may share a table
// with no further call, and each gets the answer a serial Lookup gave.
// The race detector (CI's race step runs this package) fails it on any
// write a lookup makes; a round of mutations precedes each round of
// reads, so a write the detector misses once is caught in another.
func TestLookupNeedsNoPrime(t *testing.T) {
	sw := NewSwitch("s1", 8, 0)
	entry := func(i int32, cookie uint64) FlowEntry {
		m := Match{InPort: i % 9, SrcHost: Any, DstHost: i % 40, Tag: Any}
		if i%5 == 0 {
			m.DstHost = Any
			m.Tag = i % 3
		}
		return FlowEntry{Priority: []int32{10, 14, 20}[i%3], Match: m,
			Actions: []Action{{Type: SetTag, Tag: i % 4}, {Type: Output, Port: 1 + i%8}}, Cookie: cookie}
	}
	for i := int32(0); i < 300; i++ {
		if err := sw.Table.Add(entry(i, uint64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	var probes []PacketMeta
	for dst := -1; dst <= 40; dst++ {
		for inPort := 0; inPort <= 8; inPort++ {
			for tag := 0; tag < 3; tag++ {
				probes = append(probes, PacketMeta{InPort: inPort, DstHost: dst, Tag: tag})
			}
		}
	}
	want := make([]*FlowEntry, len(probes))
	wantFwd := make([]Forwarding, len(probes))
	for i, p := range probes {
		want[i], wantFwd[i] = sw.Table.Lookup(p), sw.Process(p)
	}
	for round := 0; round < 8; round++ {
		// Install a topology's entries and tear them down again: the
		// table holds what it held, and the reads below are the first
		// ones after a mutation.
		for i := int32(0); i < 20; i++ {
			if err := sw.Table.Add(entry(i, 9)); err != nil {
				t.Fatal(err)
			}
		}
		if n := sw.Table.RemoveCookie(9); n != 20 {
			t.Fatalf("round %d: RemoveCookie removed %d entries, want 20", round, n)
		}
		// Every reader is running before any reads.
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				for k := range probes {
					i := (k + g*len(probes)/4) % len(probes) // each reader starts elsewhere
					if got := sw.Table.Lookup(probes[i]); got != want[i] {
						t.Errorf("round %d: Lookup(%+v) = %v, serial answer %v", round, probes[i], got, want[i])
						return
					}
					if got := sw.Process(probes[i]); got != wantFwd[i] {
						t.Errorf("round %d: Process(%+v) = %+v, serial answer %+v", round, probes[i], got, wantFwd[i])
						return
					}
				}
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
	}
}
