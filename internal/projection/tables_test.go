package projection

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/openflow"
	"repro/internal/routing"
	"repro/internal/topology"
)

// compileCases are topologies of every Table III strategy, each
// projected onto three H3C switches.
func compileCases() []*topology.Graph {
	return []*topology.Graph{
		topology.FatTree(4), topology.Dragonfly(4, 9, 2, 1), topology.Torus2D(4, 4, 1),
		topology.Torus3D(3, 3, 3, 1), topology.BCube(4, 1), topology.Mesh2D(5, 5, 1),
	}
}

// TestCompileCountsWhatItEmits: the count CompileFlowTables sizes its
// storage by is, per physical switch, exactly what it installs there,
// under both encodings — so no entry storage is left unused and no
// bucket is short.
func TestCompileCountsWhatItEmits(t *testing.T) {
	for _, g := range compileCases() {
		plan, _ := mustPlan(t, g, threeSwitches())
		routes, err := routing.ForTopology(g).Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []Encoding{TagEncoded, PerInPort} {
			opt := CompileOptions{Encoding: enc}
			switches, err := CompileFlowTables(plan, routes, opt)
			if err != nil {
				t.Fatalf("%s, encoding %d: %v", g.Name, enc, err)
			}
			var sub portGroups
			if enc == PerInPort {
				sub = groupPorts(plan)
			}
			b := newEntryStore(plan, routes, opt, max(routes.NumVCs, 1), sub, switches)
			for i, s := range switches {
				if counted := b.at[(i+1)*prioSlots] - b.at[i*prioSlots]; counted != s.Table.Len() {
					t.Errorf("%s, encoding %d: switch %s counted %d entries, installed %d", g.Name, enc, s.ID, counted, s.Table.Len())
				}
			}
		}
	}
}

// TestCompileSharesActionLists: every entry's action list is capped at
// its length, so nothing appends into a neighbour; under TagEncoded the
// entries with the same list, (SetTag t, Output p) or (Output p), share
// one backing array, and under PerInPort a rule's in-port expansions
// share one, so there are no more lists than rules.
func TestCompileSharesActionLists(t *testing.T) {
	type list struct {
		n    int
		acts [3]openflow.Action
	}
	for _, g := range compileCases() {
		plan, _ := mustPlan(t, g, threeSwitches())
		routes, err := routing.ForTopology(g).Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []Encoding{TagEncoded, PerInPort} {
			switches, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: enc, TagBase: 7})
			if err != nil {
				t.Fatalf("%s, encoding %d: %v", g.Name, enc, err)
			}
			backing := map[list]*openflow.Action{}
			arrays := map[*openflow.Action]bool{}
			for _, s := range switches {
				for _, e := range s.Table.Entries() {
					if cap(e.Actions) != len(e.Actions) {
						t.Fatalf("%s, encoding %d: %v: list of %d has room for %d", g.Name, enc, e, len(e.Actions), cap(e.Actions))
					}
					arrays[&e.Actions[0]] = true
					if enc != TagEncoded {
						continue
					}
					k := list{n: len(e.Actions)}
					copy(k.acts[:], e.Actions)
					if first, ok := backing[k]; !ok {
						backing[k] = &e.Actions[0]
					} else if first != &e.Actions[0] {
						t.Fatalf("%s: %v does not share its action list", g.Name, e)
					}
				}
			}
			if enc == PerInPort && len(arrays) > len(routes.Rules) {
				t.Errorf("%s, PerInPort: %d action lists for %d rules", g.Name, len(arrays), len(routes.Rules))
			}
		}
	}
}

// TestCompileAllocsFlat: a compile's allocations do not grow with its
// rules or entries. Onto three fresh switches it allocates 11 objects
// under TagEncoded and 13 under PerInPort: the switches, the store's
// five arrays (four under PerInPort) and the per-compile indexes
// (PerInPort's port groups among them).
func TestCompileAllocsFlat(t *testing.T) {
	for _, g := range compileCases() {
		plan, _ := mustPlan(t, g, threeSwitches())
		routes, err := routing.ForTopology(g).Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []Encoding{TagEncoded, PerInPort} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: enc}); err != nil {
					t.Fatal(err)
				}
			})
			const limit = 16
			if allocs > limit {
				t.Errorf("%s, encoding %d: %d rules compile in %.0f allocations, limit %d", g.Name, enc, len(routes.Rules), allocs, limit)
			}
		}
	}
}

// TestCompileWindowsAreDisjoint: the switches of one compile take their
// batches as adjacent windows of one array, and an empty table adopts
// its window; an install into one switch afterwards must leave every
// other switch's table as it was.
func TestCompileWindowsAreDisjoint(t *testing.T) {
	g := topology.Torus3D(3, 3, 3, 1) // 189 ports: all three switches carry entries
	plan, _ := mustPlan(t, g, threeSwitches())
	routes, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	switches, err := CompileFlowTables(plan, routes, CompileOptions{Cookie: 1})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() [][]*openflow.FlowEntry {
		out := make([][]*openflow.FlowEntry, len(switches))
		for i, s := range switches {
			out[i] = slices.Clone(s.Table.Entries())
		}
		return out
	}
	for i, s := range switches {
		if s.Table.Len() == 0 {
			t.Fatalf("switch %s installed nothing", s.ID)
		}
		before := snapshot()
		// A lowest-priority entry lands at the end of the table, where
		// an uncapped window would run into the next switch's.
		if err := s.Table.Add(openflow.FlowEntry{Priority: 0, Match: openflow.MatchAll, Cookie: 2}); err != nil {
			t.Fatal(err)
		}
		for j, o := range switches {
			if j != i && !slices.Equal(o.Table.Entries(), before[j]) {
				t.Fatalf("an Add to switch %s changed switch %s's table", s.ID, o.ID)
			}
		}
	}
	for _, s := range switches {
		if n := s.Table.RemoveCookie(2); n != 1 {
			t.Fatalf("switch %s: removed %d added entries, want 1", s.ID, n)
		}
	}
}

// TestCompileRejectsValuesInt32CannotHold: a tag past the int32 range
// fails the compile before any entry is installed, instead of
// installing a truncated tag.
func TestCompileRejectsValuesInt32CannotHold(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("an int is an int32 here")
	}
	g := topology.FatTree(4)
	plan, cab := mustPlan(t, g, threeSwitches())
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	into := make([]*openflow.Switch, len(cab.Switches))
	for i, spec := range cab.Switches {
		into[i] = openflow.NewSwitch(spec.ID, spec.Ports, spec.TableCap)
	}
	_, err = CompileFlowTables(plan, routes, CompileOptions{TagBase: math.MaxInt32, Into: into})
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("TagBase past int32: err = %v, want a range error", err)
	}
	if n := EntryCount(into); n != 0 {
		t.Errorf("a failed compile installed %d entries", n)
	}
	// The largest base whose tags all fit compiles.
	top := math.MaxInt32 - TagSpace(plan, routes) + 1
	switches, err := CompileFlowTables(plan, routes, CompileOptions{TagBase: top})
	if err != nil {
		t.Fatalf("TagBase %d: %v", top, err)
	}
	for _, s := range switches {
		for _, e := range s.Table.Entries() {
			if e.Match.Tag != openflow.Any && e.Match.Tag != 0 && int(e.Match.Tag) <= top {
				t.Fatalf("entry %v: tag below the base %d", e, top)
			}
		}
	}
}

// TestGroupPortsMatchesScan holds groupPorts to the per-switch scan it
// replaced (subSwitchPortsReference) on every logical switch.
func TestGroupPortsMatchesScan(t *testing.T) {
	for _, g := range compileCases() {
		plan, _ := mustPlan(t, g, threeSwitches())
		sub, maps := groupPorts(plan), refMaps(plan)
		for v := range g.Vertices {
			if got, want := sub.of(v), subSwitchPortsReference(maps, v); !slices.Equal(got, want) {
				t.Fatalf("%s vertex %d: groupPorts %v, scan %v", g.Name, v, got, want)
			}
		}
	}
}
