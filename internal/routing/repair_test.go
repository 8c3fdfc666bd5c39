package routing

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// edgeOf resolves the edge a rule's egress rides (-1 when the port
// leads nowhere, e.g. a rule at an out-of-range switch).
func edgeOf(g *topology.Graph, csr *topology.CSR, r *Rule) int {
	if r.Switch < 0 || r.Switch >= len(g.Vertices) {
		return -1
	}
	lo, hi := csr.Row(r.Switch)
	for e := lo; e < hi; e++ {
		if int(csr.Port[e]) == r.OutPort {
			return int(csr.Edge[e])
		}
	}
	return -1
}

// cut is a test outage, the set of down edges; its down method is the
// repair's predicate.
type cut map[int]bool

func (c cut) down(edge int) bool { return c[edge] }

func TestRepairAvoidingReroutesAroundDeadEdge(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.FatTree(4),
		topology.Dragonfly(4, 9, 2, 1),
		topology.Torus2D(4, 4, 1),
	} {
		orig, err := ForTopology(g).Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		csr := g.CSR()
		// Fail the first switch-switch edge some rule actually uses.
		dead := -1
		for i := range orig.Rules {
			e := edgeOf(g, csr, &orig.Rules[i])
			if e < 0 {
				continue
			}
			a, b := g.Edges[e].A, g.Edges[e].B
			if g.Vertices[a].Kind == topology.Switch && g.Vertices[b].Kind == topology.Switch {
				dead = e
				break
			}
		}
		if dead < 0 {
			t.Fatalf("%s: no core edge in use", g.Name)
		}
		out := cut{dead: true}
		rules, patched := repairAvoiding(g, orig.Rules, out.down)
		if len(patched) == 0 {
			t.Fatalf("%s: nothing patched for a used edge", g.Name)
		}
		for i := range rules {
			if e := edgeOf(g, csr, &rules[i]); e == dead {
				t.Fatalf("%s: repaired rule %+v still uses dead edge %d", g.Name, rules[i], dead)
			}
		}
		// Patched destinations must remain reachable: walk the repaired
		// rule set from every host toward every patched destination.
		repaired := orig.Clone()
		repaired.ReplaceRules(rules)
		for _, dst := range patched {
			for _, src := range g.Hosts() {
				if src == dst {
					continue
				}
				if !walkDelivers(t, g, csr, repaired, src, dst, out) {
					t.Fatalf("%s: %d -> %d unreachable after repair", g.Name, src, dst)
				}
			}
		}
		// Unpatched destinations keep their original rules verbatim.
		patchedSet := map[int]bool{}
		for _, d := range patched {
			patchedSet[d] = true
		}
		count := func(rs []Rule) map[int]int {
			m := map[int]int{}
			for i := range rs {
				if !patchedSet[rs[i].Dst] {
					m[rs[i].Dst]++
				}
			}
			return m
		}
		oldN, newN := count(orig.Rules), count(rules)
		for d, n := range oldN {
			if newN[d] != n {
				t.Fatalf("%s: healthy dst %d rule count changed %d -> %d", g.Name, d, n, newN[d])
			}
		}
		// Recovery restores the original rules exactly.
		restored, rp := repairAvoiding(g, orig.Rules, nil)
		if len(rp) != 0 || len(restored) != len(orig.Rules) {
			t.Fatalf("%s: empty outage did not restore", g.Name)
		}
		for i := range restored {
			if restored[i] != orig.Rules[i] {
				t.Fatalf("%s: restored rule %d differs", g.Name, i)
			}
		}
	}
}

// walkDelivers follows the rule set hop by hop from src's switch and
// reports whether the packet reaches dst without loops, table misses,
// or traversing a dead link.
func walkDelivers(t *testing.T, g *topology.Graph, csr *topology.CSR, r *Routes, src, dst int, down cut) bool {
	t.Helper()
	sw := g.HostSwitch(src)
	tag := 0
	inPort := 0
	for hops := 0; hops < len(g.Vertices)+1; hops++ {
		rule := r.Lookup(sw, inPort, dst, tag)
		if rule == nil {
			return false
		}
		if rule.NewTag >= 0 {
			tag = rule.NewTag
		}
		lo, hi := csr.Row(sw)
		next, edge := -1, -1
		for e := lo; e < hi; e++ {
			if int(csr.Port[e]) == rule.OutPort {
				next, edge = int(csr.Nbr[e]), int(csr.Edge[e])
				break
			}
		}
		if next < 0 || down[edge] {
			return false
		}
		if next == dst {
			return true
		}
		if g.Vertices[next].Kind != topology.Switch {
			return false
		}
		// Ingress port at the next switch.
		inPort = g.Edges[edge].PortAt(next)
		sw = next
	}
	return false // loop
}

// TestRepairAvoidingIsolatedToRUnreachable: cutting every uplink of an
// edge (ToR) switch leaves its hosts unreachable from the rest of the
// fabric, and cutting one host's own link leaves that host unreachable
// from everywhere; every other pair still delivers.
func TestRepairAvoidingIsolatedToRUnreachable(t *testing.T) {
	g := topology.FatTree(4)
	orig, err := ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	csr := g.CSR()
	hosts := g.Hosts()
	tor := g.HostSwitch(hosts[0])
	out := cut{}
	for i := csr.Start[tor]; i < csr.Start[tor+1]; i++ {
		if g.Vertices[csr.Nbr[i]].Kind == topology.Switch {
			out[int(csr.Edge[i])] = true
		}
	}
	behindToR := map[int]bool{}
	for _, h := range hosts {
		if g.HostSwitch(h) == tor {
			behindToR[h] = true
		}
	}
	// A host on another ToR loses its own link.
	cutHost := hosts[len(hosts)-1]
	if behindToR[cutHost] {
		t.Fatal("fixture: the last host sits behind the isolated ToR")
	}
	out[g.EdgeBetween(g.HostSwitch(cutHost), cutHost)] = true

	rules, patched := repairAvoiding(g, orig.Rules, out.down)
	if len(patched) == 0 {
		t.Fatal("isolated ToR patched nothing")
	}
	repaired := orig.Clone()
	repaired.ReplaceRules(rules)
	for _, dst := range hosts {
		for _, src := range hosts {
			if src == dst || src == cutHost || (behindToR[src] && behindToR[dst]) {
				continue
			}
			want := dst != cutHost && !behindToR[src] && !behindToR[dst]
			if got := walkDelivers(t, g, csr, repaired, src, dst, out); got != want {
				t.Fatalf("%d -> %d delivers = %v, want %v", src, dst, got, want)
			}
		}
	}
}

// TestRepairAvoidingParallelEdges: with two parallel edges between the
// same switches, cutting the lower-ID one must reroute over the
// surviving parallel edge — not re-emit the dead port (the lowest-ID
// default of CSR.PortTo).
func TestRepairAvoidingParallelEdges(t *testing.T) {
	g := topology.New("parallel")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	eLow := g.Connect(s1, s2)
	eHigh := g.Connect(s1, s2)
	g.Connect(s1, h1)
	g.Connect(s2, h2)
	orig, err := ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	csr := g.CSR()
	out := cut{eLow: true}
	rules, patched := repairAvoiding(g, orig.Rules, out.down)
	if len(patched) == 0 {
		t.Fatal("cutting the in-use parallel edge patched nothing")
	}
	for i := range rules {
		if e := edgeOf(g, csr, &rules[i]); e == eLow {
			t.Fatalf("repaired rule %+v rides the dead parallel edge %d", rules[i], eLow)
		}
	}
	repaired := orig.Clone()
	repaired.ReplaceRules(rules)
	for _, pair := range [][2]int{{h1, h2}, {h2, h1}} {
		if !walkDelivers(t, g, csr, repaired, pair[0], pair[1], out) {
			t.Fatalf("%d -> %d unreachable despite the healthy parallel edge %d",
				pair[0], pair[1], eHigh)
		}
	}
}

// FuzzRepairMatchesSurvivorShortestPath holds the repair to
// ShortestPath on the surviving graph. On a generator's example fabric
// with 1–3 switch–switch edges down: ShortestPath's repaired rules are,
// as a multiset, ShortestPath's rules on the graph rebuilt without those
// edges (same vertices, same ports); and under the row's Table III
// strategy the rerouted destinations' rules are that graph's
// ShortestPath rules for those destinations.
// CI runs this as a smoke (`go test -fuzz=FuzzRepairMatchesSurvivorShortestPath -fuzztime=10s`).
func FuzzRepairMatchesSurvivorShortestPath(f *testing.F) {
	for row := range topology.Generators {
		f.Add(uint8(row), uint8(row), int64(row))
	}
	f.Fuzz(func(t *testing.T, row, n uint8, seed int64) {
		gen := topology.Generators[int(row)%len(topology.Generators)]
		g, err := (&topology.Config{Generator: gen.Name, Params: gen.Example}).Build()
		if err != nil {
			t.Fatal(err)
		}
		cand := g.SwitchSwitchEdges()
		out := cut{}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(cand))[:min(1+int(n)%3, len(cand))] {
			out[cand[i]] = true
		}
		h := topology.New(g.Name + "-survivor")
		for _, v := range g.Vertices {
			if v.Kind == topology.Switch {
				h.AddSwitch(v.Label)
			} else {
				h.AddHost(v.Label)
			}
		}
		for _, e := range g.Edges {
			if !out[e.ID] {
				h.ConnectPorts(e.A, e.APort, e.B, e.BPort)
			}
		}

		sp, err := ShortestPath{}.Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ShortestPath{}.Compute(h)
		if err != nil {
			t.Fatal(err)
		}
		repaired, _ := repairAvoiding(g, sp.Rules, out.down)
		if !sameRuleMultiset(repaired, want.Rules) {
			t.Fatalf("%s with edges %v down: ShortestPath's repair is not ShortestPath on the survivors", g.Name, slices.Sorted(maps.Keys(out)))
		}

		orig, err := ForTopology(g).Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		rules, patched := repairAvoiding(g, orig.Rules, out.down)
		if len(patched) == 0 {
			return
		}
		want, err = ShortestPath{}.ComputeFor(h, patched)
		if err != nil {
			t.Fatal(err)
		}
		var got []Rule
		for _, r := range rules {
			if _, ok := slices.BinarySearch(patched, r.Dst); ok {
				got = append(got, r)
			}
		}
		if !sameRuleMultiset(got, want.Rules) {
			t.Fatalf("%s under %s with edges %v down: the rerouted destinations %v are not ShortestPath on the survivors",
				g.Name, orig.Strategy, slices.Sorted(maps.Keys(out)), patched)
		}
	})
}

// sameRuleMultiset reports whether a and b hold the same rules, each
// as many times, in any order.
func sameRuleMultiset(a, b []Rule) bool {
	byFields := func(x, y Rule) int {
		return cmp.Or(cmp.Compare(x.Switch, y.Switch), cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.Tag, y.Tag),
			cmp.Compare(x.InPort, y.InPort), cmp.Compare(x.OutPort, y.OutPort), cmp.Compare(x.NewTag, y.NewTag))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byFields)
	slices.SortFunc(b, byFields)
	return slices.Equal(a, b)
}

func TestCloneIsIndependent(t *testing.T) {
	g := topology.FatTree(4)
	orig, err := ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	orig.Prime()
	c := orig.Clone()
	if len(c.Rules) != len(orig.Rules) || c.Strategy != orig.Strategy || c.NumVCs != orig.NumVCs {
		t.Fatal("clone lost fields")
	}
	before := len(orig.Rules)
	c.ReplaceRules(append([]Rule(nil), c.Rules[:10]...))
	if len(orig.Rules) != before {
		t.Fatal("mutating the clone touched the original")
	}
	// The original's FIB still answers like before.
	if orig.FIB() == nil || c.FIB() == nil {
		t.Fatal("FIB lost")
	}
	if orig.FIB() == c.FIB() {
		t.Fatal("clone shares the compiled FIB")
	}
}

// TestRuleChurn pins the symmetric-difference accounting.
func TestRuleChurn(t *testing.T) {
	a := Rule{Switch: 1, Dst: 2, OutPort: 3, NewTag: -1}
	b := Rule{Switch: 1, Dst: 2, OutPort: 4, NewTag: -1}
	c := Rule{Switch: 2, Dst: 2, OutPort: 1, NewTag: -1}
	cases := []struct {
		old, new []Rule
		want     int
	}{
		{nil, nil, 0},
		{[]Rule{a}, []Rule{a}, 0},
		{[]Rule{a}, []Rule{b}, 2},
		{[]Rule{a, c}, []Rule{a}, 1},
		{[]Rule{a}, []Rule{a, b, c}, 2},
		{[]Rule{a, a}, []Rule{a}, 1}, // duplicates count
	}
	for i, cse := range cases {
		if got := Churn(cse.old, cse.new); got != cse.want {
			t.Errorf("case %d: churn %d, want %d", i, got, cse.want)
		}
	}
}
