package openflow

import (
	"math/rand"
	"testing"
)

// linearLookup is the pre-index reference semantics: first covering
// entry in match order (priority desc, install order asc).
func linearLookup(t *Table, p PacketMeta) *FlowEntry {
	for _, e := range t.Entries() {
		if e.Match.Covers(p) {
			return e
		}
	}
	return nil
}

// TestIndexedLookupMatchesLinearScan differentially tests the dst-
// bucketed lookup against the linear reference over randomized tables
// mixing concrete and wildcard destinations, priorities, in-ports, and
// tags — including mutations (RemoveCookie) between probe rounds.
func TestIndexedLookupMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tab := &Table{}
		nEntries := 1 + rng.Intn(40)
		for i := 0; i < nEntries; i++ {
			m := Match{SrcHost: Any, DstHost: Any, Tag: Any}
			if rng.Intn(3) > 0 {
				m.DstHost = rng.Intn(6)
			}
			if rng.Intn(3) == 0 {
				m.InPort = 1 + rng.Intn(4)
			}
			if rng.Intn(3) == 0 {
				m.Tag = rng.Intn(3)
			}
			err := tab.Add(FlowEntry{
				Priority: rng.Intn(5),
				Match:    m,
				Actions:  []Action{{Type: Output, Port: 1}},
				Cookie:   uint64(rng.Intn(3)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		probe := func() {
			for dst := -1; dst < 7; dst++ {
				for inPort := 0; inPort <= 4; inPort++ {
					for tag := 0; tag < 3; tag++ {
						p := PacketMeta{InPort: inPort, SrcHost: 0, DstHost: dst, Tag: tag}
						want := linearLookup(tab, p)
						if got := tab.Lookup(p); got != want {
							t.Fatalf("trial %d: Lookup(%+v) = %v, want %v", trial, p, got, want)
						}
					}
				}
			}
		}
		probe()
		// Mutate and re-probe: the index must follow RemoveCookie.
		tab.RemoveCookie(uint64(rng.Intn(3)))
		probe()
	}
}

// TestIndexedLookupPriorityAcrossBuckets pins the merge order: a
// higher-priority dst-wildcard entry must beat a lower-priority exact
// entry, and install order breaks priority ties exactly as before.
func TestIndexedLookupPriorityAcrossBuckets(t *testing.T) {
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
	// Equal priority: first-installed wins, regardless of bucket.
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
