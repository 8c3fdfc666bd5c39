package projection

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/topology"
)

// TestPlanCheckRejectsCorruptPlans corrupts projected plans one edge at
// a time, in each way a cable can be wrong: a cable a lower edge
// already has, a self-link index on a cut edge, an inter-link between
// other switches, a host port on another switch, an index out of range
// and a switch–switch edge left without a cable. Check must reject
// every corruption, name the corrupted edge, the lowest at fault, and
// give the same message on every call.
func TestPlanCheckRejectsCorruptPlans(t *testing.T) {
	for _, c := range []struct {
		g     *topology.Graph
		ports int // per physical switch: small enough that the plan spans all three
	}{
		{topology.FatTree(4), 40},
		{topology.Torus3D(4, 4, 4, 1), 200},
	} {
		g := c.g
		switches := []PhysicalSwitch{{ID: "a", Ports: c.ports}, {ID: "b", Ports: c.ports}, {ID: "c", Ports: c.ports}}
		plan, cab := mustPlan(t, g, switches)
		if plan.Parts.K != 3 {
			t.Fatalf("premise: %s spans %d switches, want 3", g.Name, plan.Parts.K)
		}
		tried := map[string]int{}
		corrupt := func(what string, eid int, c int32) {
			t.Helper()
			keep := plan.cable[eid]
			plan.cable[eid] = c
			defer func() { plan.cable[eid] = keep }()
			err := plan.Check()
			if want := fmt.Sprintf("projection: %s: edge %d: ", g.Name, eid); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("%s: edge %d given cable %d: Check = %v, want it to name the edge", what, eid, c, err)
			}
			for call := 1; call < 20; call++ {
				if again := plan.Check(); again == nil || again.Error() != err.Error() {
					t.Fatalf("%s: edge %d: call %d of Check = %v, the first %v", what, eid, call, again, err)
				}
			}
			tried[what]++
		}
		lists := map[cableKind]int{selfCable: len(cab.SelfLinks), interCable: len(cab.InterLinks), hostCable: len(cab.HostPorts)}
		joins := func(il InterLink, a, b int) bool {
			return (il.A.Switch == a && il.B.Switch == b) || (il.A.Switch == b && il.B.Switch == a)
		}
		// place names the physical switches a cable for e must join.
		place := func(e topology.Edge) [2]int {
			if !g.IsSwitchSwitch(e) {
				sw := e.A
				if g.Vertices[sw].Kind == topology.Host {
					sw = e.B
				}
				return [2]int{plan.CrossbarOf(sw), -1}
			}
			a, b := plan.CrossbarOf(e.A), plan.CrossbarOf(e.B)
			return [2]int{min(a, b), max(a, b)}
		}
		for eid, e := range g.Edges {
			k := plan.kindOf(e)
			corrupt("out of range", eid, int32(lists[k]))
			corrupt("out of range", eid, -2)
			if k != hostCable {
				corrupt("unrealised", eid, -1)
			}
			for f := range eid {
				if fe := g.Edges[f]; plan.kindOf(fe) == k && place(fe) == place(e) {
					corrupt("used twice", eid, plan.cable[f])
					break
				}
			}
			switch at := place(e); k {
			case interCable:
				for i, il := range cab.InterLinks {
					if !joins(il, at[0], at[1]) {
						corrupt("wrong pair", eid, int32(i))
						break
					}
				}
				for i, sl := range cab.SelfLinks {
					// Read as an inter-link, the index must not name one
					// this edge could have: that is no corruption, or one
					// of the edge that has it.
					if sl.Switch == plan.CrossbarOf(e.A) && (i >= len(cab.InterLinks) || !joins(cab.InterLinks[i], at[0], at[1])) {
						corrupt("self-link on a cut edge", eid, int32(i))
						break
					}
				}
			case hostCable:
				for i, hp := range cab.HostPorts {
					if hp.Ref.Switch != at[0] {
						corrupt("host port elsewhere", eid, int32(i))
						break
					}
				}
			}
		}
		for _, what := range []string{"out of range", "unrealised", "used twice", "wrong pair", "self-link on a cut edge", "host port elsewhere"} {
			if tried[what] == 0 {
				t.Errorf("%s: no %q corruption tried", g.Name, what)
			}
		}
		if err := plan.Check(); err != nil {
			t.Fatalf("%s: the restored plan fails Check: %v", g.Name, err)
		}
		t.Logf("%s: %v", g.Name, tried)
	}
}

// TestProjectAllocsBounded: a successful projectMapped allocates the
// plan, its cable per edge and its part-to-switch map, and Release
// nothing, whatever the topology's size; Check allocates the one array
// in which it finds a cable used twice.
func TestProjectAllocsBounded(t *testing.T) {
	const projectAllocs, checkAllocs = 3, 1
	for _, g := range []*topology.Graph{topology.Line(8, 1), topology.FatTree(4), topology.Dragonfly(4, 9, 2, 1), topology.Torus3D(4, 4, 4, 1)} {
		switches := make([]PhysicalSwitch, (g.SwitchPortCount()+g.HostFacingPorts()+87)/88+1)
		for i := range switches {
			switches[i] = H3CS6861(fmt.Sprint("s", i))
		}
		plan, cab := mustPlan(t, g, switches)
		md, _ := newSearch(cab.Switches).mapDemands(g, plan.Parts.K)
		alloc := NewAllocation(cab)
		allocs := testing.AllocsPerRun(10, func() {
			p, why := projectMapped(g, cab, alloc, md)
			if p == nil {
				t.Fatalf("%s: projectMapped: %s", g.Name, why.text(g, cab.Switches))
			}
			p.Release(alloc)
		})
		if allocs != projectAllocs {
			t.Errorf("%s: projectMapped+Release allocates %.0f objects, want %d", g.Name, allocs, projectAllocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { plan.Check() }); allocs > checkAllocs {
			t.Errorf("%s: Check allocates %.0f objects, want at most %d", g.Name, allocs, checkAllocs)
		}
	}
}

// projectIntoReference is ProjectInto over projectMappedReference: the
// same k-search, the reference's pickers and maps.
func projectIntoReference(g *topology.Graph, cab *Cabling, alloc *Allocation) (*refPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("projection: invalid topology: %w", err)
	}
	var why string
	ks, need := newSearch(cab.Switches), portsNeeded(g) // the plan's PartToSwitch is ks's storage
	for k := 1; k <= maxK(g, cab.Switches); k++ {
		if r, short := portShortfall(need, ks.top[k], k); short {
			why = r.text(g, cab.Switches)
			continue
		}
		md, r := ks.mapDemands(g, k)
		if md == nil {
			why = r.text(g, cab.Switches)
			continue
		}
		plan, err := projectMappedReference(g, cab, alloc, md)
		if plan == nil {
			why = err.Error()
			continue
		}
		return plan, nil
	}
	return nil, fmt.Errorf("projection: cannot project %q onto cabling: %s", g.Name, why)
}

// FuzzProjectInto co-hosts two or three small topologies, random WANs
// and generator-table rows, on a cabling planned for them, releases a
// random subset of the plans and projects those topologies again into
// the gaps. ProjectInto and the reference run side by side on two
// allocations: every plan must rebuild to the reference's maps and pass
// Check, every error must match, and the allocation must book exactly
// the live plans' cables.
func FuzzProjectInto(f *testing.F) {
	for seed := range int64(6) {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		graphs := make([]*topology.Graph, 2+int(shape)%2)
		for i := range graphs {
			name := fmt.Sprint("g", i) // co-hosted topologies need not differ, their names do
			if rng.Intn(2) == 0 {
				n := 4 + rng.Intn(16)
				graphs[i] = topology.RandomWAN(name, n, rng.Intn(n), rng.Int63())
				continue
			}
			row := topology.Generators[rng.Intn(len(topology.Generators))]
			g, err := (&topology.Config{Name: name, Generator: row.Name, Params: row.Example}).Build()
			if err != nil {
				t.Fatal(err)
			}
			graphs[i] = g
		}
		// The cabling is planned for the graphs and for a random WAN twice
		// as large as all of them, whose reserve gives them room together
		// but for a graph now and then; the switches hold three times the
		// ports the graphs need.
		need, switchCount, links := 0, 0, 0
		for _, g := range graphs {
			need += g.SwitchPortCount() + g.HostFacingPorts()
			switchCount += g.NumSwitches()
			links += g.NumSwitchSwitchEdges()
		}
		room := topology.RandomWAN("room", 2*switchCount, max(2*(links-switchCount)+1, 0), rng.Int63())
		switches := make([]PhysicalSwitch, 2+int(shape>>1)%3)
		for i := range switches {
			switches[i] = PhysicalSwitch{ID: fmt.Sprint("s", i), Ports: 3*need/len(switches) + rng.Intn(16)}
		}
		cab, err := PlanCabling(switches, append([]*topology.Graph{room}, graphs...), partition.Options{})
		if err != nil {
			return // the graphs do not fit these switches
		}
		got, want := NewAllocation(cab), NewAllocation(cab)
		plans := make([]*Plan, len(graphs))
		refs := make([]*refPlan, len(graphs))
		project := func(i int) {
			g := graphs[i]
			gp, gerr := ProjectInto(g, cab, got, partition.Options{})
			wp, werr := projectIntoReference(g, cab, want)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(refMaps(gp), wp) {
				t.Fatalf("%s: ProjectInto = %v, the reference %v", g.Name, gerr, werr)
			}
			sameAllocation(t, "project "+g.Name, got, want)
			plans[i], refs[i] = gp, wp
		}
		live := func(how string) {
			var self, inter, host int
			for i, p := range plans {
				if p == nil {
					continue
				}
				if err := p.Check(); err != nil {
					t.Fatalf("%s: %s: Check: %v", how, p.Topo.Name, err)
				}
				self, inter, host = self+refs[i].SelfUsed, inter+refs[i].InterUsed, host+len(refs[i].HostAttach)
			}
			if s, i, h := got.UsedCounts(); s != self || i != inter || h != host {
				t.Fatalf("%s: the allocation books %d/%d/%d self-links/inter-links/host ports, the live plans %d/%d/%d", how, s, i, h, self, inter, host)
			}
		}
		for i := range graphs {
			project(i)
		}
		live("co-hosted")
		var released []int
		for i, p := range plans {
			if p != nil && rng.Intn(2) == 0 {
				p.Release(got)
				releaseReference(refs[i], want)
				sameAllocation(t, "release "+p.Topo.Name, got, want)
				plans[i], refs[i] = nil, nil
				released = append(released, i)
			}
		}
		live("released")
		for _, i := range released {
			project(i)
		}
		live("projected again")
	})
}
