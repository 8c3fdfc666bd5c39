package openflow

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// refTable is the slow oracle for Table's ordering: the pre-insertion-
// search Add (append, then sort.SliceStable over the whole table by
// before) and a RemoveCookie that builds a fresh slice.
type refTable struct {
	entries []*FlowEntry
	nextSeq int
}

func (r *refTable) add(e FlowEntry) {
	e.seq = r.nextSeq
	r.nextSeq++
	r.entries = append(r.entries, &e)
	sort.SliceStable(r.entries, func(i, j int) bool { return before(r.entries[i], r.entries[j]) })
}

func (r *refTable) removeCookie(cookie uint64) {
	var kept []*FlowEntry
	for _, e := range r.entries {
		if e.Cookie != cookie {
			kept = append(kept, e)
		}
	}
	r.entries = kept
}

func (r *refTable) lookup(p PacketMeta) *FlowEntry {
	for _, e := range r.entries {
		if e.Match.Covers(p) {
			return e
		}
	}
	return nil
}

// entryID reads back the install number the differential test stores
// in the entry's single Output action.
func entryID(e *FlowEntry) int {
	if e == nil {
		return -1
	}
	return e.Actions[0].Port
}

// TestAddRemoveMatchesStableSortReference drives random interleavings
// of Add (mixed priorities, concrete and wildcard destinations) and
// RemoveCookie through Table and the re-sorting oracle: Entries() must
// list the same entries in the same order, and Lookup must agree with
// a linear scan of the oracle's slice.
func TestAddRemoveMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tab, ref := &Table{}, &refTable{}
		id := 0
		check := func(op string) {
			t.Helper()
			got := tab.Entries()
			if len(got) != len(ref.entries) {
				t.Fatalf("trial %d after %s: %d entries, oracle has %d", trial, op, len(got), len(ref.entries))
			}
			for i, e := range got {
				if entryID(e) != entryID(ref.entries[i]) || e.Priority != ref.entries[i].Priority {
					t.Fatalf("trial %d after %s: Entries()[%d] = #%d prio %d, oracle #%d prio %d",
						trial, op, i, entryID(e), e.Priority, entryID(ref.entries[i]), ref.entries[i].Priority)
				}
			}
			for dst := -1; dst < 5; dst++ {
				for inPort := 0; inPort <= 2; inPort++ {
					p := PacketMeta{InPort: inPort, DstHost: dst, Tag: rng.Intn(2)}
					if g, w := entryID(tab.Lookup(p)), entryID(ref.lookup(p)); g != w {
						t.Fatalf("trial %d after %s: Lookup(%+v) = #%d, oracle #%d", trial, op, p, g, w)
					}
				}
			}
		}
		for op := 0; op < 120; op++ {
			if rng.Intn(8) == 0 {
				cookie := uint64(rng.Intn(3))
				tab.RemoveCookie(cookie)
				ref.removeCookie(cookie)
				check("RemoveCookie")
				continue
			}
			m := Match{SrcHost: Any, DstHost: Any, Tag: Any}
			if rng.Intn(3) > 0 {
				m.DstHost = rng.Intn(4)
			}
			if rng.Intn(3) == 0 {
				m.InPort = 1 + rng.Intn(2)
			}
			if rng.Intn(3) == 0 {
				m.Tag = rng.Intn(2)
			}
			e := FlowEntry{
				Priority: []int{10, 14, 20, rng.Intn(30)}[rng.Intn(4)],
				Match:    m,
				Actions:  []Action{{Type: Output, Port: id}},
				Cookie:   uint64(rng.Intn(3)),
			}
			id++
			if err := tab.Add(e); err != nil {
				t.Fatal(err)
			}
			ref.add(e)
			check("Add")
		}
	}
}

// TestRemoveCookieReleasesRemovedEntries is the white-box check that
// in-place compaction does not leave the removed entries reachable
// through the backing array's tail, and that the table still orders
// later installs correctly.
func TestRemoveCookieReleasesRemovedEntries(t *testing.T) {
	var tab Table
	for i := 0; i < 64; i++ {
		if err := tab.Add(FlowEntry{Priority: 10 + i%3, Match: MatchAll, Cookie: uint64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := tab.RemoveCookie(1); n != 32 {
		t.Fatalf("removed %d, want 32", n)
	}
	tail := tab.entries[len(tab.entries):cap(tab.entries)]
	if len(tail) < 32 {
		t.Fatalf("backing array tail has %d slots, want >= 32 (compaction no longer in place?)", len(tail))
	}
	for i, e := range tail {
		if e != nil {
			t.Fatalf("backing array slot len+%d still points at removed entry (cookie %d)", i, e.Cookie)
		}
	}
	for _, prio := range []int{11, 12, 10, 11} {
		if err := tab.Add(FlowEntry{Priority: prio, Match: MatchAll, Cookie: 2}); err != nil {
			t.Fatal(err)
		}
	}
	es := tab.Entries()
	if !sort.SliceIsSorted(es, func(i, j int) bool { return before(es[i], es[j]) }) {
		t.Fatal("Entries() out of match order after RemoveCookie + Add")
	}
}

// BenchmarkTableAdd installs 16k entries in CompileFlowTables' order:
// the routing rules (priority 10, every fourth in-port-qualified at
// 14), then the priority-20 injection entries, which all land at the
// head of the table.
func BenchmarkTableAdd(b *testing.B) {
	const n = 16384
	entries := make([]FlowEntry, n)
	for i := range entries {
		prio := 20
		if i < n*3/4 {
			prio = 10
			if i%4 == 0 {
				prio = 14
			}
		}
		entries[i] = FlowEntry{
			Priority: prio,
			Match:    Match{SrcHost: Any, DstHost: i % 512, Tag: i},
			Actions:  []Action{{Type: Output, Port: 1}},
			Cookie:   1,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := Table{Capacity: n}
		for j := range entries {
			if err := tab.Add(entries[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FuzzTableInstall drives rounds of random batches — mixed priorities,
// concrete and wildcard destinations, entries of three co-hosted
// cookies — through Install, through one Add per entry, and through the
// re-sorting oracle, under a capacity limit (0 = unlimited), with a
// RemoveCookie between rounds. After every step the three must list the
// same entries in the same order with the same install numbers, answer
// every Lookup alike, and fail an overflowing batch with the same error
// after installing the same prefix.
func FuzzTableInstall(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0))
	f.Add(int64(2), uint8(200), uint8(37))
	f.Add(int64(3), uint8(90), uint8(8))
	f.Add(int64(4), uint8(1), uint8(1))
	f.Add(int64(-18), uint8(40), uint8(73)) // a two-priority batch out of match order
	f.Fuzz(func(t *testing.T, seed int64, size, capacity uint8) {
		rng := rand.New(rand.NewSource(seed))
		batch := &Table{Capacity: int(capacity), owner: "s1"}
		seq := &Table{Capacity: int(capacity), owner: "s1"}
		ref := &refTable{}
		id := 0
		for round := 0; round < 5; round++ {
			es := make([]FlowEntry, 1+rng.Intn(1+int(size)))
			for i := range es {
				m := Match{SrcHost: Any, DstHost: Any, Tag: Any}
				if rng.Intn(3) > 0 {
					m.DstHost = rng.Intn(6)
				}
				if rng.Intn(3) == 0 {
					m.InPort = 1 + rng.Intn(2)
				}
				if rng.Intn(3) == 0 {
					m.Tag = rng.Intn(2)
				}
				es[i] = FlowEntry{
					Priority: []int{10, 14, 20, rng.Intn(30)}[rng.Intn(4)],
					Match:    m,
					Actions:  []Action{{Type: Output, Port: id}},
					Cookie:   uint64(rng.Intn(3)),
				}
				id++
			}
			fresh := make([]*FlowEntry, len(es)) // Install takes the entries themselves
			for i := range es {
				e := es[i]
				fresh[i] = &e
			}
			errBatch := batch.Install(fresh)
			var errSeq error
			for _, e := range es {
				if errSeq = seq.Add(e); errSeq != nil {
					break
				}
			}
			wantFull := false
			for _, e := range es {
				if capacity > 0 && len(ref.entries) >= int(capacity) {
					wantFull = true
					break
				}
				ref.add(e)
			}
			for _, err := range []error{errBatch, errSeq} {
				var full *ErrTableFull
				if (err != nil) != wantFull || (err != nil && (!errors.As(err, &full) || *full != ErrTableFull{Switch: "s1", Capacity: int(capacity)})) {
					t.Fatalf("round %d: Install = %v, Add = %v, oracle full = %v", round, errBatch, errSeq, wantFull)
				}
			}
			sameAsOracle(t, batch, ref, "Install")
			sameAsOracle(t, seq, ref, "Add")
			cookie := uint64(rng.Intn(3))
			batch.RemoveCookie(cookie)
			seq.RemoveCookie(cookie)
			ref.removeCookie(cookie)
			sameAsOracle(t, batch, ref, "Install+RemoveCookie")
			sameAsOracle(t, seq, ref, "Add+RemoveCookie")
		}
	})
}

// sameAsOracle requires tab to hold ref's entries in ref's order, with
// the same install numbers, and to answer every Lookup as a linear scan
// of ref does.
func sameAsOracle(t *testing.T, tab *Table, ref *refTable, how string) {
	t.Helper()
	got := tab.Entries()
	if len(got) != len(ref.entries) {
		t.Fatalf("%s: %d entries, oracle has %d", how, len(got), len(ref.entries))
	}
	for i, e := range got {
		w := ref.entries[i]
		if entryID(e) != entryID(w) || e.Priority != w.Priority || e.Cookie != w.Cookie || e.seq != w.seq {
			t.Fatalf("%s: Entries()[%d] = #%d prio %d seq %d, oracle #%d prio %d seq %d",
				how, i, entryID(e), e.Priority, e.seq, entryID(w), w.Priority, w.seq)
		}
	}
	for dst := -1; dst < 7; dst++ {
		for inPort := 0; inPort <= 2; inPort++ {
			for tag := 0; tag < 2; tag++ {
				p := PacketMeta{InPort: inPort, DstHost: dst, Tag: tag}
				if g, w := entryID(tab.Lookup(p)), entryID(ref.lookup(p)); g != w {
					t.Fatalf("%s: Lookup(%+v) = #%d, oracle #%d", how, p, g, w)
				}
			}
		}
	}
}
