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
		sub := groupPorts(plan)
		for v := range g.Vertices {
			if got, want := sub.of(v), subSwitchPortsReference(plan, v); !slices.Equal(got, want) {
				t.Fatalf("%s vertex %d: groupPorts %v, scan %v", g.Name, v, got, want)
			}
		}
	}
}
