package projection

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/openflow"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/topology"
)

func threeSwitches() []PhysicalSwitch {
	return []PhysicalSwitch{H3CS6861("s6861-a"), H3CS6861("s6861-b"), H3CS6861("s6861-c")}
}

func mustPlan(t *testing.T, g *topology.Graph, switches []PhysicalSwitch) (*Plan, *Cabling) {
	t.Helper()
	cab, err := PlanCabling(switches, []*topology.Graph{g}, partition.Options{})
	if err != nil {
		t.Fatalf("PlanCabling(%s): %v", g.Name, err)
	}
	plan, err := Project(g, cab, partition.Options{})
	if err != nil {
		t.Fatalf("Project(%s): %v", g.Name, err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("plan.Check(%s): %v", g.Name, err)
	}
	return plan, cab
}

func TestProjectLineSingleSwitch(t *testing.T) {
	g := topology.Line(8, 1) // Fig. 10 topology: 14 switch ports + 8 hosts = 22 <= 64
	plan, _ := mustPlan(t, g, threeSwitches()[:1])
	st := plan.Stats()
	if st.PhysicalSwitches != 1 {
		t.Errorf("physical switches = %d, want 1", st.PhysicalSwitches)
	}
	if st.SelfLinks != 7 || st.InterLinks != 0 {
		t.Errorf("links = %d self, %d inter; want 7, 0", st.SelfLinks, st.InterLinks)
	}
	if st.Hosts != 8 {
		t.Errorf("hosts = %d, want 8", st.Hosts)
	}
}

func TestProjectFatTreeTwoSwitches(t *testing.T) {
	// §VII-C: fat-tree k=4 (32 switch links + 16 hosts = 80 ports) needs
	// 2 of the 64-port switches.
	g := topology.FatTree(4)
	plan, _ := mustPlan(t, g, []PhysicalSwitch{Commodity64("a"), Commodity64("b"), Commodity64("c")})
	st := plan.Stats()
	if st.PhysicalSwitches != 2 {
		t.Errorf("physical switches = %d, want 2", st.PhysicalSwitches)
	}
	if st.SelfLinks+st.InterLinks != 32 {
		t.Errorf("self+inter = %d, want 32 logical links", st.SelfLinks+st.InterLinks)
	}
	if st.InterLinks == 0 {
		t.Error("two-switch projection has no inter-switch links")
	}
}

func TestProjectTorus4x4MatchesFig7(t *testing.T) {
	// Fig. 6/7: 4x4 2D-torus (32 links) on two 32-port... the paper uses
	// 64-port switches with >32 ports occupied per half: 12 self + 8
	// inter per switch.
	g := topology.Torus2D(4, 4, 0)
	sw := []PhysicalSwitch{{ID: "a", Ports: 40}, {ID: "b", Ports: 40}}
	cab, err := PlanCabling(sw, []*topology.Graph{g}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Project(g, cab, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.PhysicalSwitches != 2 {
		t.Fatalf("physical switches = %d, want 2", st.PhysicalSwitches)
	}
	if st.InterLinks != 8 {
		t.Errorf("inter-switch links = %d, want 8 (Fig. 6)", st.InterLinks)
	}
	if st.SelfLinks != 24 {
		t.Errorf("self links = %d, want 24 (12 per switch)", st.SelfLinks)
	}
}

// TestCablingValidate pins each of Validate's five error messages byte
// for byte, for every kind of cable that can hold a port, and accepts a
// well-formed cabling.
func TestCablingValidate(t *testing.T) {
	two := []PhysicalSwitch{{ID: "a", Ports: 4}, {ID: "b", Ports: 4}}
	for _, tc := range []struct {
		name string
		c    Cabling
		want string
	}{
		{"well-formed", Cabling{
			Switches:   two,
			SelfLinks:  []SelfLink{{Switch: 0, PortA: 1, PortB: 2}},
			InterLinks: []InterLink{{A: PortRef{0, 3}, B: PortRef{1, 1}}},
			HostPorts:  []HostPort{{PortRef{0, 4}}, {PortRef{1, 4}}},
		}, ""},
		{"self-link to itself", Cabling{
			Switches:  two,
			SelfLinks: []SelfLink{{Switch: 0, PortA: 1, PortB: 2}, {Switch: 1, PortA: 3, PortB: 3}},
		}, "projection: self-link 1 joins a port to itself"},
		{"inter-link on one switch", Cabling{
			Switches:   two,
			InterLinks: []InterLink{{A: PortRef{0, 1}, B: PortRef{0, 2}}},
		}, "projection: inter-link 0 stays on one switch"},
		{"switch out of range", Cabling{
			Switches:   two,
			InterLinks: []InterLink{{A: PortRef{0, 1}, B: PortRef{1, 1}}, {A: PortRef{0, 2}, B: PortRef{2, 1}}},
		}, "projection: inter-link 1 references switch 2 out of range"},
		{"negative switch", Cabling{
			Switches:  two,
			HostPorts: []HostPort{{PortRef{-1, 1}}},
		}, "projection: host port 0 references switch -1 out of range"},
		{"port out of range", Cabling{
			Switches:  two,
			SelfLinks: []SelfLink{{Switch: 0, PortA: 1, PortB: 5}},
		}, "projection: self-link 0 references port sw0.p5 out of range"},
		{"port zero", Cabling{
			Switches:  two,
			HostPorts: []HostPort{{PortRef{1, 2}}, {PortRef{1, 0}}},
		}, "projection: host port 1 references port sw1.p0 out of range"},
		{"two self-links", Cabling{
			Switches:  two,
			SelfLinks: []SelfLink{{Switch: 0, PortA: 1, PortB: 2}, {Switch: 0, PortA: 2, PortB: 3}},
		}, "projection: port sw0.p2 used by both self-link 0 and self-link 1"},
		{"inter-link and host port", Cabling{
			Switches:   two,
			SelfLinks:  []SelfLink{{Switch: 1, PortA: 1, PortB: 2}},
			InterLinks: []InterLink{{A: PortRef{0, 1}, B: PortRef{1, 3}}},
			HostPorts:  []HostPort{{PortRef{0, 4}}, {PortRef{1, 3}}},
		}, "projection: port sw1.p3 used by both inter-link 0 and host port 1"},
		{"self-link and inter-link", Cabling{
			Switches:   two,
			SelfLinks:  []SelfLink{{Switch: 1, PortA: 1, PortB: 2}},
			InterLinks: []InterLink{{A: PortRef{0, 1}, B: PortRef{1, 2}}},
		}, "projection: port sw1.p2 used by both self-link 0 and inter-link 0"},
	} {
		got := ""
		if err := tc.c.Validate(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: Validate() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestProjectFailsWhenTooBig(t *testing.T) {
	g := topology.FatTree(8) // 256 switch links + 128 hosts: way over 3x64 ports
	_, err := PlanCabling(threeSwitches(), []*topology.Graph{g}, partition.Options{})
	if err == nil {
		t.Fatal("oversized topology accepted")
	}
	if !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestPlanCablingNoSwitches: a topology with no switches fails with
// the reason, not with the error of a search that never ran.
func TestPlanCablingNoSwitches(t *testing.T) {
	for _, g := range []*topology.Graph{topology.New("x"), hostsOnly()} {
		_, err := PlanCabling(threeSwitches(), []*topology.Graph{topology.FatTree(4), g}, partition.Options{})
		if want := `projection: topology "` + g.Name + `" has no switches to project`; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", g.Name, err, want)
		}
	}
}

// hostsOnly is a topology of two unconnected hosts.
func hostsOnly() *topology.Graph {
	g := topology.New("hosts")
	g.AddHost("h0")
	g.AddHost("h1")
	return g
}

func TestMultiTopologyCablingReservesMax(t *testing.T) {
	topos := []*topology.Graph{
		topology.Torus2D(4, 4, 1),
		topology.FatTree(4),
		topology.Dragonfly(4, 9, 2, 1),
	}
	cab, err := PlanCabling(threeSwitches(), topos, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every topology must project onto the shared cabling (sequentially,
	// each with a fresh allocation — reconfiguration reuses links).
	for _, g := range topos {
		plan, err := Project(g, cab, partition.Options{})
		if err != nil {
			t.Errorf("%s does not project onto shared cabling: %v", g.Name, err)
			continue
		}
		if err := plan.Check(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestCoHostedTopologiesShareCabling(t *testing.T) {
	// Two disjoint topologies simultaneously (isolation scenario §VI-B):
	// allocate both from one allocation; links must not collide.
	a := topology.Line(3, 2)
	b := topology.Ring(4, 1)
	// Plan a cabling big enough for both at once.
	combined := topology.New("combined")
	// Merge: simplest is to plan for a synthetic topology with the sum
	// of demands; instead reserve via both separately then double.
	_ = combined
	sw := []PhysicalSwitch{{ID: "big", Ports: 64, TableCap: 4096}}
	cab, err := PlanCabling(sw, []*topology.Graph{topology.Line(8, 4)}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alloc := NewAllocation(cab)
	planA, err := ProjectInto(a, cab, alloc, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planB, err := ProjectInto(b, cab, alloc, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No physical port shared between the two plans.
	mapsA, mapsB := refMaps(planA), refMaps(planB)
	used := map[PortRef]bool{}
	for _, ref := range mapsA.Ports {
		used[ref] = true
	}
	for _, ref := range mapsA.HostAttach {
		used[ref] = true
	}
	for _, ref := range mapsB.Ports {
		if used[ref] {
			t.Errorf("port %v used by both co-hosted plans", ref)
		}
	}
	for _, ref := range mapsB.HostAttach {
		if used[ref] {
			t.Errorf("host port %v used by both co-hosted plans", ref)
		}
	}
	// Releasing plan A frees its links for a third topology.
	planA.Release(alloc)
	if _, err := ProjectInto(topology.Line(3, 2), cab, alloc, partition.Options{}); err != nil {
		t.Errorf("released links not reusable: %v", err)
	}
}

// walkPhysical forwards a packet through compiled physical tables from
// src to dst, returning the number of crossbar traversals, or -1 on
// drop/loop.
func walkPhysical(t *testing.T, plan *Plan, switches []*openflow.Switch, src, dst int) int {
	t.Helper()
	ref, _ := plan.HostPort(src)
	at, _ := plan.HostPort(dst)
	tag := 0
	hops := 0
	for ; hops < 100; hops++ {
		sw := switches[ref.Switch]
		fwd := sw.Process(openflow.PacketMeta{
			InPort: ref.Port, SrcHost: src, DstHost: dst, Tag: tag,
		})
		if !fwd.Matched || fwd.Dropped {
			return -1
		}
		tag = fwd.Tag
		out := PortRef{ref.Switch, fwd.OutPort}
		if out == at {
			if far, ok := plan.CableAt(out); ok {
				t.Fatalf("CableAt(%v), host %d's port, = %v: a host port has no cable", out, dst, far)
			}
			return hops + 1
		}
		nxt, ok := plan.CableAt(out)
		if !ok {
			t.Fatalf("out port %v has no cable", out)
		}
		ref = nxt
	}
	return -1
}

func TestCompiledTablesForwardEndToEnd(t *testing.T) {
	for _, enc := range []Encoding{TagEncoded, PerInPort} {
		g := topology.Torus2D(3, 3, 1)
		plan, _ := mustPlan(t, g, threeSwitches()[:1])
		routes, err := routing.TorusClue{Dims: 2}.Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		switches, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: enc})
		if err != nil {
			t.Fatalf("encoding %d: %v", enc, err)
		}
		hosts := g.Hosts()
		for _, s := range hosts {
			for _, d := range hosts {
				if s == d {
					continue
				}
				hops := walkPhysical(t, plan, switches, s, d)
				if hops < 0 {
					t.Fatalf("encoding %d: packet %d->%d lost", enc, s, d)
				}
				// Crossbar traversals must equal logical switch hops.
				path, err := routes.TracePath(s, d)
				if err != nil {
					t.Fatal(err)
				}
				if hops != len(path) {
					t.Errorf("encoding %d: %d->%d crossed %d crossbars, logical path %d switches",
						enc, s, d, hops, len(path))
				}
			}
		}
	}
}

func TestCompiledTablesMultiSwitchForward(t *testing.T) {
	g := topology.FatTree(4)
	plan, _ := mustPlan(t, g, threeSwitches())
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	switches, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: TagEncoded})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			if hops := walkPhysical(t, plan, switches, s, d); hops < 0 {
				t.Fatalf("packet %d->%d lost on multi-switch SDT", s, d)
			}
		}
	}
}

func TestEntryCountFatTreeMatchesPaper(t *testing.T) {
	// §VII-C: "when we project a Fat-Tree with k=4 ... to 2 OpenFlow
	// switches, each switch requires about only 300 flow table entries".
	g := topology.FatTree(4)
	plan, _ := mustPlan(t, g, []PhysicalSwitch{Commodity64("a"), Commodity64("b"), Commodity64("c")})
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	switches, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: TagEncoded})
	if err != nil {
		t.Fatal(err)
	}
	perSwitch := 0
	n := 0
	for _, sw := range switches {
		if sw.Table.Len() > 0 {
			n++
			if sw.Table.Len() > perSwitch {
				perSwitch = sw.Table.Len()
			}
		}
	}
	if n != 2 {
		t.Fatalf("entries landed on %d switches, want 2", n)
	}
	if perSwitch < 150 || perSwitch > 450 {
		t.Errorf("max entries per switch = %d, want ~300 (paper §VII-C)", perSwitch)
	}
	// The merged encoding must beat the naive per-in-port encoding.
	naive, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: PerInPort})
	if err != nil {
		t.Fatal(err)
	}
	if EntryCount(naive) <= EntryCount(switches) {
		t.Errorf("per-in-port %d entries <= tag-encoded %d; merging should win",
			EntryCount(naive), EntryCount(switches))
	}
}

func TestTableCapacityEnforced(t *testing.T) {
	g := topology.FatTree(4)
	small := []PhysicalSwitch{
		{ID: "tiny-a", Ports: 64, TableCap: 50},
		{ID: "tiny-b", Ports: 64, TableCap: 50},
		{ID: "tiny-c", Ports: 64, TableCap: 50},
	}
	plan, _ := mustPlan(t, g, small)
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileFlowTables(plan, routes, CompileOptions{Encoding: TagEncoded})
	if err == nil {
		t.Fatal("50-entry tables accepted a fat-tree route set")
	}
	var full *openflow.ErrTableFull
	if !strings.Contains(err.Error(), "full") && !errorsAs(err, &full) {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCompileOverflowStopsWhereAddWould pins CompileFlowTables' batched
// install to sequential-Add semantics on overflow. The test models the
// emission order — each rule's entries (one per VC it matches) on its
// egress switch, then the injection entries on each host's switch —
// and, with one switch's table limited to C entries (every C at which
// it fills), replays one Add per entry: the compile must fail with
// that switch's *ErrTableFull, and every switch must hold, for each
// priority (where match order is emission order), exactly the prefix
// the replay had installed by then.
func TestCompileOverflowStopsWhereAddWould(t *testing.T) {
	g := topology.FatTree(4)
	plan, cab := mustPlan(t, g, []PhysicalSwitch{ // 40 ports: the fat-tree spans all three
		{ID: "a", Ports: 40}, {ID: "b", Ports: 40}, {ID: "c", Ports: 40},
	})
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	type emit struct {
		sw   int
		prio int32
	}
	var order []emit
	maps := refMaps(plan)
	for _, rule := range routes.Rules {
		e := emit{maps.Ports[portKey{rule.Switch, rule.OutPort}].Switch, 10}
		if rule.InPort != 0 {
			e.prio = 14
		}
		n := 1
		if rule.Tag == openflow.Any {
			n = max(routes.NumVCs, 1)
		}
		for range n {
			order = append(order, e)
		}
	}
	for _, h := range g.Hosts() {
		for range g.NumHosts() - 1 {
			order = append(order, emit{maps.HostAttach[h].Switch, 20})
		}
	}
	fresh := func(caps []int) []*openflow.Switch {
		sw := make([]*openflow.Switch, len(cab.Switches))
		for i, spec := range cab.Switches {
			sw[i] = openflow.NewSwitch(spec.ID, spec.Ports, caps[i])
		}
		return sw
	}
	byPrio := func(sw *openflow.Switch) map[int32][]string {
		m := map[int32][]string{}
		for _, e := range sw.Table.Entries() {
			m[e.Priority] = append(m[e.Priority], e.String())
		}
		return m
	}
	all, err := CompileFlowTables(plan, routes, CompileOptions{Into: fresh(make([]int, len(cab.Switches)))})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != EntryCount(all) {
		t.Fatalf("emission model has %d entries, the compile %d", len(order), EntryCount(all))
	}
	for small := range all { // one switch limited, the others not: its neighbours' batches are pending when it fills
		for capacity := 1; capacity < all[small].Table.Len(); capacity++ {
			caps := make([]int, len(all))
			caps[small] = capacity
			want := make([]map[int32]int, len(all)) // per switch: priority -> entries installed
			for i := range want {
				want[i] = map[int32]int{}
			}
			lens := make([]int, len(all))
			for _, e := range order {
				if caps[e.sw] > 0 && lens[e.sw] == caps[e.sw] {
					break
				}
				lens[e.sw]++
				want[e.sw][e.prio]++
			}
			sw := fresh(caps)
			_, err := CompileFlowTables(plan, routes, CompileOptions{Into: sw})
			var full *openflow.ErrTableFull
			if !errors.As(err, &full) || *full != (openflow.ErrTableFull{Switch: sw[small].ID, Capacity: capacity}) {
				t.Fatalf("capacity %d on %s: err = %v", capacity, sw[small].ID, err)
			}
			for i, s := range sw {
				got, unlimited := byPrio(s), byPrio(all[i])
				for prio, n := range want[i] {
					if len(got[prio]) != n || !slices.Equal(got[prio], unlimited[prio][:n]) {
						t.Fatalf("capacity %d on %s: switch %s holds %d priority-%d entries, want the first %d emitted",
							capacity, sw[small].ID, s.ID, len(got[prio]), prio, n)
					}
				}
				if s.Table.Len() != lens[i] {
					t.Fatalf("capacity %d on %s: switch %s holds %d entries, want %d", capacity, sw[small].ID, s.ID, s.Table.Len(), lens[i])
				}
			}
		}
	}
}

func errorsAs(err error, target interface{}) bool {
	switch t := target.(type) {
	case **openflow.ErrTableFull:
		e, ok := err.(*openflow.ErrTableFull)
		if ok {
			*t = e
		}
		return ok
	}
	return false
}

func TestIsolationBetweenCoHostedTopologies(t *testing.T) {
	// §VI-B: two unconnected topologies in one SDT; the client's port
	// must not receive packets from nodes of the other topology.
	sw := []PhysicalSwitch{{ID: "big", Ports: 64, TableCap: 4096}}
	cab, err := PlanCabling(sw, []*topology.Graph{topology.Line(8, 4)}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alloc := NewAllocation(cab)
	a := topology.Line(3, 1)
	b := topology.Line(3, 1)
	planA, err := ProjectInto(a, cab, alloc, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planB, err := ProjectInto(b, cab, alloc, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routesA, _ := routing.ShortestPath{}.Compute(a)
	routesB, _ := routing.ShortestPath{}.Compute(b)
	switches, err := CompileFlowTables(planA, routesA, CompileOptions{Encoding: TagEncoded, Cookie: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileFlowTables(planB, routesB, CompileOptions{
		Encoding: TagEncoded, Cookie: 2, TagBase: TagSpace(planA, routesA), Into: switches,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Traffic within each topology flows.
	if walkPhysical(t, planA, switches, a.Hosts()[0], a.Hosts()[2]) < 0 {
		t.Error("topology A traffic lost")
	}
	if walkPhysical(t, planB, switches, b.Hosts()[0], b.Hosts()[2]) < 0 {
		t.Error("topology B traffic lost")
	}
	// Cross-topology traffic must be dropped at the ingress switch:
	// inject from an A host toward a B host ID.
	refA, _ := planA.HostPort(a.Hosts()[0])
	fwd := switches[refA.Switch].Process(openflow.PacketMeta{
		InPort: refA.Port, SrcHost: a.Hosts()[0], DstHost: b.Hosts()[2] + 1000, Tag: 0,
	})
	if fwd.Matched && !fwd.Dropped {
		t.Error("cross-topology packet was forwarded; isolation violated")
	}
	// Teardown by cookie removes exactly one topology's entries.
	before := EntryCount(switches)
	removed := 0
	for _, s := range switches {
		removed += s.Table.RemoveCookie(1)
	}
	if removed == 0 || EntryCount(switches) != before-removed {
		t.Errorf("cookie teardown removed %d of %d entries", removed, before)
	}
	if walkPhysical(t, planB, switches, b.Hosts()[0], b.Hosts()[2]) < 0 {
		t.Error("topology B broken by topology A teardown")
	}
}

func TestRequirements(t *testing.T) {
	spec := Commodity64("c64")
	ft := topology.FatTree(4)
	sdt, err := Requirements(ft, spec, MethodSDT, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sdt.Switches != 2 {
		t.Errorf("SDT switches = %d, want 2", sdt.Switches)
	}
	spos, err := Requirements(ft, spec, MethodSPOS, 8)
	if err != nil {
		t.Fatal(err)
	}
	if spos.OpticalPorts != spos.Switches*64 {
		t.Errorf("SP-OS optical ports = %d, want %d", spos.OpticalPorts, spos.Switches*64)
	}
	sp, err := Requirements(ft, spec, MethodSP, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sp.ManualCables != 48 {
		t.Errorf("SP manual cables = %d, want 48 (§I)", sp.ManualCables)
	}
	tn, err := Requirements(ft, spec, MethodTurboNet, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tn.BandwidthFactor != 0.5 {
		t.Errorf("TurboNet bandwidth factor = %v, want 0.5", tn.BandwidthFactor)
	}
	if tn.Switches <= sdt.Switches {
		t.Errorf("TurboNet should need more switches than SDT (%d vs %d)", tn.Switches, sdt.Switches)
	}
}

func TestProjectableZooSDTBeatsTurboNet(t *testing.T) {
	spec := Commodity64("s")
	zoo := topology.Zoo(7)[:60] // subset for test speed
	sdtCount, tnCount := 0, 0
	for _, g := range zoo {
		if Projectable(g, spec, MethodSDT, 3) {
			sdtCount++
		}
		if Projectable(g, spec, MethodTurboNet, 3) {
			tnCount++
		}
	}
	if sdtCount <= tnCount {
		t.Errorf("SDT projects %d zoo WANs, TurboNet %d; SDT must cover more (Table II)", sdtCount, tnCount)
	}
}

// Property: for random WANs that fit, a projection plan always passes
// Check and realises every logical link exactly once.
func TestQuickProjectionSound(t *testing.T) {
	switches := threeSwitches()
	f := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw)%20
		g := topology.RandomWAN("q", n, n/4, seed)
		cab, err := PlanCabling(switches, []*topology.Graph{g}, partition.Options{})
		if err != nil {
			return true // legitimately too big — skip
		}
		plan, err := Project(g, cab, partition.Options{})
		if err != nil {
			return false
		}
		if plan.Check() != nil {
			return false
		}
		return len(refMaps(plan).EdgeLink) == len(g.SwitchSwitchEdges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkProjectFatTree(b *testing.B) {
	g := topology.FatTree(4)
	switches := []PhysicalSwitch{Commodity64("a"), Commodity64("b"), Commodity64("c")}
	cab, err := PlanCabling(switches, []*topology.Graph{g}, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Project(g, cab, partition.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileFlowTables(b *testing.B) {
	g := topology.FatTree(4)
	switches := []PhysicalSwitch{Commodity64("a"), Commodity64("b"), Commodity64("c")}
	cab, _ := PlanCabling(switches, []*topology.Graph{g}, partition.Options{})
	plan, _ := Project(g, cab, partition.Options{})
	routes, _ := routing.FatTreeDFS{}.Compute(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileFlowTables(plan, routes, CompileOptions{Encoding: TagEncoded}); err != nil {
			b.Fatal(err)
		}
	}
}
