package routing

import (
	"slices"
	"testing"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// fibCases is the differential matrix of the compiled-FIB acceptance
// criterion: every built-in strategy on the paper's topology families
// (fat-tree, dragonfly, torus — plus the mesh and generic strategies
// that share code paths with them).
func fibCases(t testing.TB) []*Routes {
	t.Helper()
	type tc struct {
		strat Strategy
		g     *topology.Graph
	}
	cases := []tc{
		{FatTreeDFS{}, topology.FatTree(4)},
		{DragonflyMinimal{}, topology.Dragonfly(4, 9, 2, 1)},
		{DragonflyUGAL{Bias: 1}, topology.Dragonfly(4, 9, 2, 1)},
		{TorusClue{Dims: 2}, topology.Torus2D(5, 5, 1)},
		{TorusClue{Dims: 3}, topology.Torus3D(3, 3, 3, 1)},
		{MeshXY{}, topology.Mesh2D(4, 4, 1)},
		{MeshXYZ{}, topology.Mesh3D(3, 3, 3, 1)},
		{ShortestPath{}, topology.FatTree(4)},
		{ShortestPath{}, topology.Torus2D(4, 4, 1)},
	}
	var out []*Routes
	for _, c := range cases {
		r, err := c.strat.Compute(c.g)
		if err != nil {
			t.Fatalf("%s on %s: %v", c.strat.Name(), c.g.Name, err)
		}
		out = append(out, r)
	}
	return out
}

// countSlots counts the FIB's slots that take the packed fast path and
// those that hold a spill list.
func countSlots(f *FIB) (fast, spilled int) {
	for _, v := range f.slots {
		switch {
		case v == 0:
		case v&fibSpill == 0:
			fast++
		default:
			spilled++
		}
	}
	return fast, spilled
}

// lookupForward is the forwarding decision the rule Routes.Lookup
// matches implies — what FIB.Forward must return for the tuple.
func lookupForward(r *Routes, sw, inPort, dst, tag int) (outPort, newTag int, ok bool) {
	rule := r.Lookup(sw, inPort, dst, tag)
	if rule == nil {
		return 0, 0, false
	}
	if rule.NewTag >= 0 {
		return rule.OutPort, rule.NewTag, true
	}
	return rule.OutPort, tag, true
}

// TestFIBMatchesLookupExhaustive checks FIB.Forward against the
// Routes.Lookup reference on EVERY (switch, inPort, dst, tag) tuple:
// all switches, all logical ports (0 = injection, plus one past the
// radix), all host destinations plus an unknown one, and all tags
// 0..NumVCs (one past the used range included).
func TestFIBMatchesLookupExhaustive(t *testing.T) {
	for _, r := range fibCases(t) {
		g := r.Topo
		fib := r.Compile()
		maxPort := g.Radix() + 1
		dsts := append(append([]int(nil), g.Hosts()...), len(g.Vertices)) // unknown dst probes the miss path
		tuples := 0
		for _, sw := range g.Switches() {
			for _, dst := range dsts {
				for inPort := 0; inPort <= maxPort; inPort++ {
					for tag := 0; tag <= r.NumVCs; tag++ {
						tuples++
						wantOut, wantTag, wantOK := lookupForward(r, sw, inPort, dst, tag)
						out, newTag, ok := fib.Forward(sw, inPort, dst, tag)
						if out != wantOut || newTag != wantTag || ok != wantOK {
							t.Fatalf("%s on %s: Forward(%d,%d,%d,%d) = (%d,%d,%v), Lookup's rule gives (%d,%d,%v)",
								r.Strategy, g.Name, sw, inPort, dst, tag, out, newTag, ok, wantOut, wantTag, wantOK)
						}
					}
				}
			}
		}
		if tuples == 0 {
			t.Fatalf("%s on %s: empty differential", r.Strategy, g.Name)
		}
	}
}

// TestFIBMatchesLookupOnSubset: a FatTreeDFS subset of FatTree(28) —
// 6 468 vertices, more than the dense vertex-by-vertex FIB served —
// compiles one row per switch but columns for the 48 routed hosts only,
// and must agree with Lookup from every switch toward every host,
// routed or not (an absent column), a switch, and IDs outside the
// vertex range.
func TestFIBMatchesLookupOnSubset(t *testing.T) {
	g := topology.FatTree(28)
	routed := spreadHosts(g, 48)
	r, err := FatTreeDFS{}.ComputeFor(g, routed)
	if err != nil {
		t.Fatal(err)
	}
	fib := r.FIB()
	if want := (g.NumSwitches() + 1) * (len(routed) + 1); len(fib.slots) != want {
		t.Errorf("%d slots, want %d: (switches + 1) × (routed hosts + 1)", len(fib.slots), want)
	}
	if fast, spilled := countSlots(fib); fast != len(r.Rules) || spilled != 0 {
		t.Errorf("%d fast slots, %d spilled; want all %d rules fast", fast, spilled, len(r.Rules))
	}
	dsts := append(slices.Clone(g.Hosts()), -1, len(g.Vertices), g.Switches()[0])
	for _, sw := range g.Switches() {
		for _, dst := range dsts {
			wantOut, wantTag, wantOK := lookupForward(r, sw, 1, dst, 0)
			if out, newTag, ok := fib.Forward(sw, 1, dst, 0); out != wantOut || newTag != wantTag || ok != wantOK {
				t.Fatalf("Forward(%d, 1, %d, 0) = (%d, %d, %v), Lookup's rule gives (%d, %d, %v)",
					sw, dst, out, newTag, ok, wantOut, wantTag, wantOK)
			}
		}
	}
}

// TestFIBManualRoutesSpecificity exercises the spill path directly:
// overlapping wildcard shapes on one (switch, dst) slot must resolve in
// Lookup's most-specific-first order, and out-of-encoding-range fields
// must round-trip through the unpacked spill entries. Line(2, 49) has
// 100 vertices, so destinations 97–99 are hosts.
func TestFIBManualRoutesSpecificity(t *testing.T) {
	g := topology.Line(2, 49)
	r := NewManualRoutes(g, "manual", 2)
	sw := g.Switches()[0]
	r.AddRule(Rule{Switch: sw, Dst: 99, Tag: openflow.Any, OutPort: 1, NewTag: -1})
	r.AddRule(Rule{Switch: sw, Dst: 99, Tag: 1, OutPort: 2, NewTag: 0})
	r.AddRule(Rule{Switch: sw, InPort: 3, Dst: 99, Tag: openflow.Any, OutPort: 3, NewTag: -1})
	r.AddRule(Rule{Switch: sw, InPort: 3, Dst: 99, Tag: 1, OutPort: 4, NewTag: -1})
	// A fully wildcarded rule whose port overflows the packed encoding
	// (its own slot must spill rather than truncate).
	r.AddRule(Rule{Switch: sw, Dst: 98, Tag: openflow.Any, OutPort: 1 << 20, NewTag: -1})
	fib := r.Compile()
	for _, probe := range [][2]int{{1, 0}, {1, 1}, {3, 0}, {3, 1}, {2, 0}} {
		inPort, tag := probe[0], probe[1]
		for _, dst := range []int{98, 99, 97} {
			wantOut, wantTag, wantOK := lookupForward(r, sw, inPort, dst, tag)
			if out, newTag, ok := fib.Forward(sw, inPort, dst, tag); out != wantOut || newTag != wantTag || ok != wantOK {
				t.Errorf("Forward(%d,%d,%d,%d) = (%d,%d,%v), Lookup's rule gives (%d,%d,%v)",
					sw, inPort, dst, tag, out, newTag, ok, wantOut, wantTag, wantOK)
			}
		}
	}
	// Mutating the rule set must invalidate the memoized FIB.
	old := r.FIB()
	r.AddRule(Rule{Switch: sw, Dst: 97, Tag: openflow.Any, OutPort: 5, NewTag: -1})
	if r.FIB() == old {
		t.Fatal("FIB not invalidated by AddRule")
	}
	if out, _, ok := r.FIB().Forward(sw, 1, 97, 0); !ok || out != 5 {
		t.Fatalf("recompiled FIB missed new rule: out=%d ok=%v", out, ok)
	}
}

// TestOffGraphRulesMatchNothing: a manual set's rules whose switch or
// destination is not a vertex match nothing — Lookup returns nil and
// the FIB misses — and Reroute keeps them as they are, even one whose
// out port rides a down edge, while it repairs the rules of the graph.
func TestOffGraphRulesMatchNothing(t *testing.T) {
	g := topology.Line(4, 1)
	nv := len(g.Vertices)
	sp, err := ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := g.Switches()[0], g.Switches()[1]
	dead := g.EdgeBetween(s0, s1)
	toS1 := g.Edges[dead].PortAt(s0)
	off := []Rule{
		{Switch: -1, Dst: g.Hosts()[0], Tag: openflow.Any, OutPort: 1, NewTag: -1},
		{Switch: nv, Dst: g.Hosts()[0], Tag: openflow.Any, OutPort: 1, NewTag: -1},
		{Switch: s0, Dst: -1, Tag: openflow.Any, OutPort: toS1, NewTag: -1},
		{Switch: s0, Dst: nv, Tag: openflow.Any, OutPort: toS1, NewTag: -1},
		{Switch: s1, InPort: 2, Dst: nv + 5, Tag: 1, OutPort: 2, NewTag: 0},
	}
	r := NewManualRoutes(g, "manual", 2)
	for _, rule := range append(slices.Clone(sp.Rules), off...) {
		r.AddRule(rule)
	}
	for _, rule := range off {
		for _, probe := range [][2]int{{0, 0}, {2, 1}, {rule.InPort, rule.Tag}} {
			if got := r.Lookup(rule.Switch, probe[0], rule.Dst, probe[1]); got != nil {
				t.Errorf("Lookup(%d,%d,%d,%d) = %+v, want nil", rule.Switch, probe[0], rule.Dst, probe[1], *got)
			}
			if out, _, ok := r.FIB().Forward(rule.Switch, probe[0], rule.Dst, probe[1]); ok {
				t.Errorf("Forward(%d,%d,%d,%d) hits port %d, want a miss", rule.Switch, probe[0], rule.Dst, probe[1], out)
			}
		}
	}
	orig := slices.Clone(r.Rules)
	down := func(edge int) bool { return edge == dead }
	r.Reroute(orig, down)
	repaired, _ := repairAvoiding(g, sp.Rules, down)
	if churn := Churn(r.Rules, append(slices.Clone(repaired), off...)); churn != 0 {
		t.Errorf("Reroute: %d rules differ from the repaired graph rules plus the off-graph rules", churn)
	}
}

// TestFIBStats sanity-checks the layout accounting: single-VC
// strategies must compile entirely into fast slots, VC-transition
// strategies must have spill slots exactly where qualified rules live.
func TestFIBStats(t *testing.T) {
	sp, err := ShortestPath{}.Compute(topology.FatTree(4))
	if err != nil {
		t.Fatal(err)
	}
	fast, spilled := countSlots(sp.Compile())
	if spilled != 0 || fast == 0 {
		t.Errorf("shortest-path on fat-tree: fast=%d spilled=%d, want all fast", fast, spilled)
	}
	tor, err := TorusClue{Dims: 2}.Compute(topology.Torus2D(5, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast, spilled = countSlots(tor.Compile())
	if spilled == 0 {
		t.Error("torus dateline routing compiled with no spill slots; in-port rules lost?")
	}
	if fast == 0 {
		t.Error("torus routing has fast-path slots (delivery rules); none compiled")
	}
}

// TestComputeParallelDeterminism recomputes every differential case
// serially and with a forced 4-worker fan-out: the rule slices must be
// deeply identical (rules are placed by destination order, so
// scheduling must not leak into the output). Two cases span many
// blocks of destinations, one of each kind: a fat-tree, whose runs have
// one shape, so every worker writes blocks straight into place; and
// TorusClue, whose runs do not, so the general path builds a run per
// destination past the first block. Run under -race this also proves
// the builds only read shared graph state.
func TestComputeParallelDeterminism(t *testing.T) {
	defer func() { computeWorkers = 0 }()
	cases := func() []*Routes {
		rs := fibCases(t)
		for _, c := range []struct {
			strat Strategy
			g     *topology.Graph
		}{
			{FatTreeDFS{}, topology.FatTree(8)},
			{TorusClue{Dims: 2}, topology.Torus2D(8, 8, 1)},
		} {
			r, err := c.strat.Compute(c.g)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.strat.Name(), c.g.Name, err)
			}
			rs = append(rs, r)
		}
		return rs
	}
	computeWorkers = 1
	serial := cases()
	computeWorkers = 4
	parallel := cases()
	for i := range serial {
		s, p := serial[i], parallel[i]
		if len(s.Rules) != len(p.Rules) {
			t.Fatalf("%s on %s: %d rules serial, %d parallel", s.Strategy, s.Topo.Name, len(s.Rules), len(p.Rules))
		}
		for j := range s.Rules {
			if s.Rules[j] != p.Rules[j] {
				t.Fatalf("%s on %s: rule %d differs: serial %+v parallel %+v",
					s.Strategy, s.Topo.Name, j, s.Rules[j], p.Rules[j])
			}
		}
	}
}

// BenchmarkForward measures the per-hop forwarding decision on the
// compiled FIB — the per-packet hot path — mixing fast-slot (fat-tree)
// and spill-slot (torus VC transition) lookups. Must report 0
// allocs/op: this is the acceptance criterion the CI bench smoke
// enforces.
func BenchmarkForward(b *testing.B) {
	type probe struct{ sw, inPort, dst, tag int }
	mk := func(strat Strategy, g *topology.Graph) (*FIB, []probe) {
		r, err := strat.Compute(g)
		if err != nil {
			b.Fatal(err)
		}
		fib := r.Compile()
		var ps []probe
		hosts := g.Hosts()
		for i, sw := range g.Switches() {
			dst := hosts[i%len(hosts)]
			ps = append(ps, probe{sw, 1 + i%g.Radix(), dst, i % r.NumVCs})
		}
		return fib, ps
	}
	ftFib, ftProbes := mk(FatTreeDFS{}, topology.FatTree(8))
	toFib, toProbes := mk(TorusClue{Dims: 3}, topology.Torus3D(4, 4, 4, 1))
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		p := ftProbes[i%len(ftProbes)]
		out, _, _ := ftFib.Forward(p.sw, p.inPort, p.dst, p.tag)
		q := toProbes[i%len(toProbes)]
		out2, _, _ := toFib.Forward(q.sw, q.inPort, q.dst, q.tag)
		sink += out + out2
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
}

// BenchmarkLookup walks every (switch, destination host) of a
// FatTree(8) route set through Routes.Lookup — the uncompiled path the
// flow-level walker takes on fabrics too large for a FIB, and the
// baseline of the DESIGN.md fast-path comparison.
func BenchmarkLookup(b *testing.B) {
	r, err := FatTreeDFS{}.Compute(topology.FatTree(8))
	if err != nil {
		b.Fatal(err)
	}
	r.Prime()
	g := r.Topo
	hosts := g.Hosts()
	sws := g.Switches()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sw := sws[i/len(hosts)%len(sws)]
		if rule := r.Lookup(sw, 1, hosts[i%len(hosts)], 0); rule != nil {
			sink += rule.OutPort
		}
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
}

// BenchmarkRouteCompute measures a full strategy build at Fig. 13
// scale (Dragonfly a=4 g=9 h=2 — the evaluation's largest routed
// fabric), with allocations reported.
func BenchmarkRouteCompute(b *testing.B) {
	g := topology.Dragonfly(4, 9, 2, 1)
	g.CSR()
	g.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DragonflyMinimal{}).Compute(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteComputeTorus tracks the dimension-order builder (the
// strategy that lost the per-(dst, switch) port-list recomputation).
func BenchmarkRouteComputeTorus(b *testing.B) {
	g := topology.Torus3D(4, 4, 4, 1)
	g.CSR()
	g.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (TorusClue{Dims: 3}).Compute(g); err != nil {
			b.Fatal(err)
		}
	}
}
