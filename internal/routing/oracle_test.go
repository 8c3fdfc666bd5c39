package routing

// Slow oracles for route set-up. The linear rule placement and the flat
// (switch → dst) index replaced a reflective stable sort and a
// map-backed index; both survive here, verbatim, as the references the
// fast code is held to. The second matters more than usual: the FIB is
// differential-tested against Routes.Lookup, and both are now built
// from the same index, so without lookupReference that differential
// would compare the index with itself.

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// sortRulesReference is the stable sort placeRuns replaced.
func sortRulesReference(rules []Rule) {
	sort.SliceStable(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.InPort < b.InPort
	})
}

// dedupeRulesReference is DragonflyUGAL's former finalisation: the
// six-key stable sort, the adjacent-duplicate filter, then the
// canonical sort.
func dedupeRulesReference(rules []Rule) []Rule {
	sort.SliceStable(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.InPort != b.InPort {
			return a.InPort < b.InPort
		}
		if a.OutPort != b.OutPort {
			return a.OutPort < b.OutPort
		}
		return a.NewTag < b.NewTag
	})
	out := rules[:0]
	for i, rule := range rules {
		if i == 0 || rule != rules[i-1] {
			out = append(out, rule)
		}
	}
	sortRulesReference(out)
	return out
}

// mapIndex is the lookup index Routes carried before the flat one:
// (switch, dst) -> rule indices, most specific first.
type mapIndex map[[2]int][]int

// buildIndexReference indexes the rules of a graph of nv vertices. A
// rule whose switch or destination is not a vertex matches nothing, so
// it stays out of the index.
func buildIndexReference(rules []Rule, nv int) mapIndex {
	index := make(mapIndex)
	for i := range rules {
		if uint(rules[i].Switch) >= uint(nv) || uint(rules[i].Dst) >= uint(nv) {
			continue
		}
		key := [2]int{rules[i].Switch, rules[i].Dst}
		index[key] = append(index[key], i)
	}
	spec := func(i int) int {
		s := 0
		if rules[i].InPort != 0 {
			s += 2
		}
		if rules[i].Tag != openflow.Any {
			s++
		}
		return s
	}
	for key := range index {
		idx := index[key]
		sort.SliceStable(idx, func(a, b int) bool { return spec(idx[a]) > spec(idx[b]) })
	}
	return index
}

// lookupReference is the former Routes.Lookup over a mapIndex. It
// returns a pointer into rules, so it compares by identity with Lookup
// on the same rule list.
func lookupReference(rules []Rule, index mapIndex, sw, inPort, dst, tag int) *Rule {
	for _, i := range index[[2]int{sw, dst}] {
		rule := &rules[i]
		if rule.InPort != 0 && rule.InPort != inPort {
			continue
		}
		if rule.Tag != openflow.Any && rule.Tag != tag {
			continue
		}
		return rule
	}
	return nil
}

// oracleCase is one strategy on one topology, with the per-destination
// builder behind it so a test can reproduce the unsorted rule list.
type oracleCase struct {
	strategy DstComputer
	graph    *topology.Graph
	builder  dstBuilder
}

func (c oracleCase) String() string { return c.strategy.Name() + " on " + c.graph.Name }

func dimensionOrderCase(s DstComputer, g *topology.Graph, dims int, torus bool) oracleCase {
	return oracleCase{s, g, func(g *topology.Graph) (func(int, func(Rule)) error, error) {
		return dimensionOrderBuilder(g, dims, torus)
	}}
}

// oracleCases covers every strategy of strategies.go plus ShortestPath.
// The large fat-tree is left out under -short.
func oracleCases() []oracleCase {
	cases := []oracleCase{
		{FatTreeDFS{}, topology.FatTree(4), fatTreeBuilder},
		{FatTreeDFS{}, topology.FatTree(8), fatTreeBuilder},
		{DragonflyMinimal{}, topology.Dragonfly(4, 9, 2, 1), dragonflyBuilder},
		dimensionOrderCase(TorusClue{Dims: 2}, topology.Torus2D(5, 4, 1), 2, true),
		dimensionOrderCase(TorusClue{Dims: 3}, topology.Torus3D(3, 3, 3, 1), 3, true),
		dimensionOrderCase(MeshXY{}, topology.Mesh2D(4, 3, 2), 2, false),
		dimensionOrderCase(MeshXYZ{}, topology.Mesh3D(3, 2, 3, 1), 3, false),
		{ShortestPath{}, topology.BCube(4, 1), shortestPathBuilder},
		{ShortestPath{}, topology.Line(6, 2), shortestPathBuilder},
		{ShortestPath{}, topology.FatTree(4), shortestPathBuilder},
		{ShortestPath{}, topology.Torus2D(4, 4, 1), shortestPathBuilder},
	}
	if !testing.Short() {
		cases = append(cases, oracleCase{FatTreeDFS{}, topology.FatTree(16), fatTreeBuilder})
	}
	return cases
}

// rawRules runs c's builder serially over dsts (ascending, distinct)
// and returns the rules in emission order — what computeForDsts's
// runs hold, concatenated.
func rawRules(t *testing.T, c oracleCase, dsts []int) []Rule {
	t.Helper()
	build, err := c.builder(c.graph)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	var raw []Rule
	for _, d := range dsts {
		if err := build(d, func(r Rule) { raw = append(raw, r) }); err != nil {
			t.Fatalf("%s: dst %d: %v", c, d, err)
		}
	}
	return raw
}

// randomSubset draws a non-empty subset of hosts, ascending.
func randomSubset(rng *rand.Rand, hosts []int) []int {
	var sub []int
	for _, h := range hosts {
		if rng.Intn(3) == 0 {
			sub = append(sub, h)
		}
	}
	if len(sub) == 0 {
		sub = append(sub, hosts[rng.Intn(len(hosts))])
	}
	return sub
}

// dstRuns cuts rules on a graph of nv vertices into consecutive
// per-destination runs: at every change of destination and, with split,
// at random points too, leaving some runs empty.
func dstRuns(rng *rand.Rand, nv int, rules []Rule, split bool) []dstRun {
	var runs []dstRun
	for lo := 0; lo < len(rules); {
		hi := lo + 1
		for hi < len(rules) && rules[hi].Dst == rules[lo].Dst {
			hi++
		}
		if split {
			hi = lo + rng.Intn(hi-lo+1)
		}
		run := dstRun{dst: rules[lo].Dst, nv: nv}
		for _, r := range rules[lo:hi] {
			run.emit(r)
		}
		if run.err != nil {
			panic(run.err)
		}
		runs = append(runs, run)
		lo = hi
	}
	if split {
		runs = append(runs, dstRun{dst: 1})
	}
	return runs
}

// checkPlacement holds placeRuns to the reference sort on one rule
// list, cut into per-destination runs as they come and at random
// points besides.
func checkPlacement(t *testing.T, rng *rand.Rand, what string, nv int, rules []Rule) {
	t.Helper()
	want := slices.Clone(rules)
	sortRulesReference(want)
	if got := placeRuns(nil, make([]int, 2*nv), nv, dstRuns(rng, nv, rules, false)); !slices.Equal(got, want) {
		t.Errorf("%s: placeRuns differs from the stable sort at rule %d of %d", what, firstDiff(got, want), len(want))
	}
	if got := placeRuns(nil, make([]int, 2*nv), nv, dstRuns(rng, nv, rules, true)); !slices.Equal(got, want) {
		t.Errorf("%s: placeRuns over split runs differs from the stable sort at rule %d of %d", what, firstDiff(got, want), len(want))
	}
}

// fuzzRuns decodes per-destination runs from data, one byte per choice
// (0 once data runs out): a vertex count of 1..8, then up to 7 runs,
// each toward a destination of 0..5 — so destinations repeat and
// descend — with up to 7 rules. A rule's switch is a vertex, so a
// switch often appears several times in a run; its ingress port is
// 0..2 and its tag any, 0 or 1. OutPort numbers the rules, so an
// unstable placement shows.
func fuzzRuns(data []byte) (nv int, runs []dstRun) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nv = next()%8 + 1
	out := 0
	for n := next() % 8; n > 0; n-- {
		run := dstRun{dst: next() % 6, nv: nv}
		for k := next() % 8; k > 0; k-- {
			sw := next() % nv
			out++
			run.emit(Rule{Switch: sw, InPort: next() % 3, Dst: run.dst, Tag: next()%3 - 1, OutPort: out, NewTag: -1})
		}
		runs = append(runs, run)
	}
	return nv, runs
}

// FuzzPlaceRuns holds placeRuns to the reference stable sort on random
// runs, including the ones no strategy emits: destinations repeated or
// descending, a switch several times in one run. The segments the count
// pass proves sorted skip the check; a proof that admits an unsorted
// segment fails here.
// CI runs this as a smoke (`go test -fuzz=FuzzPlaceRuns -fuzztime=10s`).
func FuzzPlaceRuns(f *testing.F) {
	// Layout: nv; runs; per run dst, rules; per rule switch, in port,
	// tag+1.
	for _, seed := range [][]byte{
		{},
		{3, 2, 2, 2, 0, 0, 0, 1, 0, 0, 4, 2, 0, 0, 0, 1, 0, 0}, // canonical: ascending, one rule per group
		{3, 2, 4, 1, 1, 0, 0, 2, 1, 1, 0, 0},                   // a descending destination
		{3, 2, 4, 1, 1, 0, 0, 4, 1, 1, 0, 2},                   // a repeated destination
		{3, 1, 2, 2, 1, 0, 2, 1, 0, 1},                         // a switch twice in a run, tags descending
		{3, 1, 2, 3, 1, 2, 0, 1, 1, 0, 1, 0, 0},                // a switch three times, ports descending
		// The last of 8 vertices, destinations descending.
		{7, 3, 5, 2, 7, 0, 0, 0, 1, 2, 3, 2, 7, 0, 0, 0, 1, 2, 1, 2, 7, 2, 1, 3, 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nv, runs := fuzzRuns(data)
		var want []Rule
		for _, run := range runs {
			for _, rr := range run.rules {
				want = append(want, rr.widen(run.dst))
			}
		}
		sortRulesReference(want)
		if got := placeRuns(nil, make([]int, 2*nv), nv, runs); !slices.Equal(got, want) {
			t.Fatalf("placeRuns(%d, %d runs) differs from the stable sort at rule %d of %d:\n got %v\nwant %v",
				nv, len(runs), firstDiff(got, want), len(want), got, want)
		}
	})
}

// fuzzBuilds decodes a per-destination rule build from data, one byte
// per choice (0 once data runs out): a graph (2, 4 or 8 vertices); up
// to 47 destinations, ascending, descending, or one byte each of 0..15
// (so they repeat and descend); a shape of up to 7 switches, a switch
// often several times in it; a seed for the in ports and tags, which
// vary with the destination so a group's tags come out of order; and a
// break of the shape — none, another switch, a rule dropped or a rule
// repeated — at one destination (every run toward it) and one rule.
// OutPort numbers a run's rules, so an unstable placement shows.
func fuzzBuilds(graphs []*topology.Graph, data []byte) (*topology.Graph, []int, func(dst int, emit func(Rule)) error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := graphs[next()%len(graphs)]
	nv := len(g.Vertices)
	dsts := make([]int, next()%48)
	order := next() % 3
	shape := make([]int, next()%8)
	for i := range shape {
		shape[i] = next() % nv
	}
	seed := next()
	kind, at, rule := next()%4, next(), next()
	for j := range dsts {
		switch order {
		case 0:
			dsts[j] = j
		case 1:
			dsts[j] = len(dsts) - j
		default:
			dsts[j] = next() % 16
		}
	}
	broken := -1
	if kind > 0 && len(dsts) > 0 && len(shape) > 0 {
		broken, rule = dsts[at%len(dsts)], rule%len(shape)
	}
	return g, dsts, func(dst int, emit func(Rule)) error {
		for i, sw := range shape {
			r := Rule{Switch: sw, InPort: (dst + i*seed) % 3, Dst: dst,
				Tag: (dst*seed+5*i)%3 - 1, OutPort: i + 1, NewTag: -1}
			if dst == broken && i == rule {
				switch kind {
				case 1:
					r.Switch = (sw + 1) % nv
				case 2:
					continue
				case 3:
					emit(r)
				}
			}
			emit(r)
		}
		return nil
	}
}

// FuzzComputeForDsts holds computeForDsts, whose one-shape path writes
// the rules straight into place, to placeRuns over the runs a serial
// loop builds, at 1 and 4 workers: on builds of one shape, with several
// rules per switch and destinations out of order, and on builds whose
// shape breaks in the first block (the general path from the start) or
// in a later one (the one-shape path discarded).
// CI runs this as a smoke (`go test -fuzz=FuzzComputeForDsts -fuzztime=10s`).
func FuzzComputeForDsts(f *testing.F) {
	graphs := []*topology.Graph{topology.Line(1, 1), topology.Line(2, 1), topology.Line(4, 1)}
	// Layout: graph; destinations; order; shape length, switches; seed;
	// break kind, destination, rule; with order 2, the destinations.
	for _, seed := range [][]byte{
		{},
		{2, 40, 0, 4, 0, 1, 2, 3, 0, 0, 0, 0},    // one shape, five blocks
		{2, 40, 0, 5, 3, 1, 3, 1, 3, 7, 0, 0, 0}, // several rules per switch, tags out of order
		{2, 30, 1, 3, 2, 0, 1, 1, 0, 0, 0},       // descending destinations
		{1, 20, 2, 2, 1, 3, 2, 0, 0, 0, 5, 5, 1, 9, 3, 3, 0, 12, 7, 7, 2, 1, 4, 8, 8, 6, 15, 2, 2, 0},
		{2, 40, 0, 4, 0, 1, 2, 3, 0, 1, 20, 2}, // another switch in a later block
		{2, 40, 0, 4, 0, 1, 2, 3, 0, 1, 1, 0},  // another switch in the first block
		{2, 40, 0, 4, 0, 1, 2, 3, 0, 2, 33, 1}, // a rule dropped in the last block
		{2, 40, 0, 4, 0, 1, 2, 3, 0, 3, 17, 3}, // a rule repeated
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, dsts, build := fuzzBuilds(graphs, data)
		runs := make([]dstRun, len(dsts))
		for j, d := range dsts {
			runs[j] = dstRun{dst: d, nv: len(g.Vertices)}
			if err := build(d, runs[j].emit); err != nil || runs[j].err != nil {
				t.Fatalf("build toward %d: %v %v", d, err, runs[j].err)
			}
		}
		want := placeRuns(nil, make([]int, 2*len(g.Vertices)), len(g.Vertices), runs)
		defer func() { computeWorkers = 0 }()
		for _, workers := range []int{1, 4} {
			computeWorkers = workers
			r := newRoutes(g, "fuzz", 2)
			if err := computeForDsts(r, g, dsts, build); err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if !slices.Equal(r.Rules, want) {
				t.Fatalf("%d workers, %d destinations: computeForDsts differs from placeRuns at rule %d of %d:\n got %v\nwant %v",
					workers, len(dsts), firstDiff(r.Rules, want), len(want), r.Rules, want)
			}
		}
	})
}

func firstDiff(a, b []Rule) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// ugalRoutes is the active-routing case: loads on the group 0 <-> 1
// global links push DragonflyUGAL onto non-minimal paths, whose rules
// carry four tags and come out of the strategy with tags out of order.
func ugalRoutes(t testing.TB) *Routes {
	t.Helper()
	g := topology.Dragonfly(4, 9, 2, 1)
	loads := make([]float64, len(g.Edges))
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		if ga, gb := g.Vertices[e.A].Coord[0], g.Vertices[e.B].Coord[0]; ga+gb == 1 {
			loads[eid] = 1e9
		}
	}
	r, err := DragonflyUGAL{Loads: loads, Bias: 1}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSortRulesMatchesStableSort: the rule list every strategy returns
// is element for element the one the reflective stable sort produced
// from the same per-destination emissions, for full and subset
// computes; and placeRuns agrees with that sort on lists no strategy
// produces.
func TestSortRulesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range oracleCases() {
		hosts := c.graph.Hosts()
		subsets := [][]int{hosts, randomSubset(rng, hosts), randomSubset(rng, hosts), hosts[len(hosts)-1:]}
		for si, dsts := range subsets {
			raw := rawRules(t, c, dsts)
			want := slices.Clone(raw)
			sortRulesReference(want)
			var (
				r   *Routes
				err error
			)
			if si == 0 {
				r, err = c.strategy.Compute(c.graph)
			} else {
				// Reversed with a duplicate: canonicalDsts restores the order.
				in := append(slices.Clone(dsts), dsts[0])
				slices.Reverse(in)
				r, err = c.strategy.ComputeFor(c.graph, in)
			}
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			if !slices.Equal(r.Rules, want) {
				t.Errorf("%s, %d dsts: Rules differ from the stable sort at rule %d of %d",
					c, len(dsts), firstDiff(r.Rules, want), len(want))
			}
			if si > 1 || len(raw) > 1<<16 {
				continue
			}
			// The same rules in an order no builder emits.
			rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
			checkPlacement(t, rng, c.String()+" shuffled", len(c.graph.Vertices), raw)
		}
	}

	// UGAL finalises through dedupeRules alone. Its output must be in
	// canonical order, and on its own rules — doubled and shuffled, so
	// there is something to drop — dedupeRules must match the former
	// sort + filter + sort.
	ugal := ugalRoutes(t)
	if !slices.IsSortedFunc(ugal.Rules, compareRules) {
		t.Errorf("dragonfly-ugal: Rules are not in canonical order")
	}
	doubled := append(slices.Clone(ugal.Rules), ugal.Rules...)
	rng.Shuffle(len(doubled), func(i, j int) { doubled[i], doubled[j] = doubled[j], doubled[i] })
	checkPlacement(t, rng, "dragonfly-ugal doubled", len(ugal.Topo.Vertices), doubled)
	scratch := &Routes{Topo: ugal.Topo, Rules: slices.Clone(doubled)}
	dedupeRules(scratch)
	if want := dedupeRulesReference(doubled); !slices.Equal(scratch.Rules, want) {
		t.Errorf("dragonfly-ugal: dedupeRules differs from the reference at rule %d of %d",
			firstDiff(scratch.Rules, want), len(want))
	} else if !slices.Equal(want, ugal.Rules) {
		t.Errorf("dragonfly-ugal: deduplicating the doubled rules does not give back Rules")
	}

	// Hand-built lists: reverse-ordered, duplicates and ties on every
	// key prefix (stability is visible in OutPort).
	const nv = 6
	var hand []Rule
	for sw := nv - 1; sw >= 0; sw-- {
		for dst := 9; dst >= 7; dst-- {
			for _, tag := range []int{2, openflow.Any, 0, 2} {
				for _, in := range []int{3, 0, 1} {
					hand = append(hand, Rule{Switch: sw, InPort: in, Dst: dst, Tag: tag, OutPort: len(hand) + 1, NewTag: -1})
				}
			}
		}
	}
	checkPlacement(t, rng, "hand-built reversed", nv, hand)
	checkPlacement(t, rng, "hand-built doubled", nv, append(slices.Clone(hand), hand...))
	checkPlacement(t, rng, "empty", nv, nil)
	checkPlacement(t, rng, "empty graph", 0, nil)
}

// checkLookup holds r.Lookup to the map-backed reference on every
// (switch, inPort, dst, tag) tuple over the given ID ranges.
func checkLookup(t *testing.T, what string, r *Routes, switches, dsts []int, maxPort int) {
	t.Helper()
	index := buildIndexReference(r.Rules, len(r.Topo.Vertices))
	tags := []int{openflow.Any}
	for tag := 0; tag <= r.NumVCs; tag++ {
		tags = append(tags, tag)
	}
	for _, sw := range switches {
		for _, dst := range dsts {
			for inPort := 0; inPort <= maxPort; inPort++ {
				for _, tag := range tags {
					want := lookupReference(r.Rules, index, sw, inPort, dst, tag)
					if got := r.Lookup(sw, inPort, dst, tag); got != want {
						t.Fatalf("%s: Lookup(%d,%d,%d,%d) = %v, the map index gives %v", what, sw, inPort, dst, tag, got, want)
					}
				}
			}
		}
	}
}

// checkLookupOnGraph probes every switch of r.Topo and every
// destination r has a rule for, plus IDs on both sides of the vertex
// range, a switch as destination and (on a subset compute) a host
// without rules.
func checkLookupOnGraph(t *testing.T, what string, r *Routes) {
	t.Helper()
	g := r.Topo
	nv := len(g.Vertices)
	switches := append(slices.Clone(g.Switches()), -1, nv, nv+7)
	dsts := []int{-1, nv, g.Switches()[0], g.Hosts()[0]}
	for _, rule := range r.Rules {
		dsts = append(dsts, rule.Dst)
	}
	slices.Sort(dsts)
	checkLookup(t, what, r, switches, slices.Compact(dsts), g.Radix()+1)
}

// checkIndexInPlace: once r's index is built, it holds a permutation
// of the rules exactly when Rules is not already in index order.
func checkIndexInPlace(t *testing.T, what string, r *Routes) {
	t.Helper()
	permuted := len(r.index().order) != 0
	inPlace := slices.IsSortedFunc(r.Rules, func(a, b Rule) int {
		return cmp.Or(compareGroup(&a, &b), specificity(&b)-specificity(&a))
	})
	if permuted == inPlace {
		t.Errorf("%s: rules in index order %v, but the index holds a permutation %v", what, inPlace, permuted)
	}
}

// TestLookupMatchesMapIndex: the flat index answers every tuple as the
// map-backed one did, on strategy-built sets (full and subset), on
// manual sets in random insertion order with several rules of mixed
// specificity per group and IDs outside the vertex range, and after
// each way a rule list can change under an index: AddRule,
// ReplaceRules, Clone.
func TestLookupMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, c := range oracleCases() {
		var (
			r   *Routes
			err error
		)
		if len(c.graph.Hosts()) > 200 {
			r, err = c.strategy.ComputeFor(c.graph, randomSubset(rng, c.graph.Hosts())[:40])
		} else {
			r, err = c.strategy.Compute(c.graph)
		}
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		checkLookupOnGraph(t, c.String(), r)
		checkIndexInPlace(t, c.String(), r)
		switch c.strategy.(type) {
		case FatTreeDFS, ShortestPath:
			// One rule per (switch, dst) group, emitted in order.
			if len(r.index().order) != 0 {
				t.Errorf("%s: the index of a canonical set holds a permutation", c)
			}
		}

		// A repair's output is the healthy rules followed by appended
		// trees: no longer grouped by (switch, dst).
		dead := c.graph.SwitchSwitchEdges()[0]
		patched, _ := repairAvoiding(c.graph, r.Rules, cut{dead: true}.down)
		clone := r.Clone()
		r.ReplaceRules(patched)
		checkLookupOnGraph(t, c.String()+" repaired", r)
		checkIndexInPlace(t, c.String()+" repaired", r)
		checkLookupOnGraph(t, c.String()+" clone", clone)
	}
	checkLookupOnGraph(t, "dragonfly-ugal", ugalRoutes(t))

	// Manual sets. Every (switch, dst) of a small ID range, some outside
	// the graph, gets a random handful of rules of every specificity,
	// with repeats; the whole list is inserted in random order.
	g := topology.Line(4, 1)
	nv := len(g.Vertices)
	ids := []int{-5, -1, 0, 1, 3, nv - 1, nv, nv + 3, 1000}
	for round := 0; round < 20; round++ {
		var rules []Rule
		for _, sw := range ids {
			for _, dst := range ids {
				for n := rng.Intn(5); n > 0; n-- {
					rules = append(rules, Rule{
						Switch: sw, Dst: dst,
						InPort:  rng.Intn(3),     // 0 = any
						Tag:     rng.Intn(3) - 1, // -1 = openflow.Any
						OutPort: len(rules) + 1,
						NewTag:  rng.Intn(3) - 1,
					})
				}
			}
		}
		rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
		m := NewManualRoutes(g, "manual", 2)
		half := len(rules) / 2
		for _, rule := range rules[:half] {
			m.AddRule(rule)
		}
		checkLookup(t, "manual", m, ids, ids, 3)
		// AddRule on a built index must drop it.
		for _, rule := range rules[half:] {
			m.AddRule(rule)
		}
		checkLookup(t, "manual after AddRule", m, ids, ids, 3)
		clone := m.Clone()
		m.ReplaceRules(rules[half:])
		checkLookup(t, "manual after ReplaceRules", m, ids, ids, 3)
		checkLookup(t, "manual clone", clone, ids, ids, 3)
	}
	empty := NewManualRoutes(g, "empty", 1)
	checkLookup(t, "empty", empty, ids, ids, 1)
}

// dragonflyMapsReference is the map-backed group index indexDragonfly
// replaced: for every switch-switch link between two groups, in edge
// order, (srcGroup, dstGroup) -> gateway router and (router, dstGroup)
// -> peer router, the last link written winning.
func dragonflyMapsReference(g *topology.Graph) (gateRtr, gatePeer map[[2]int]int) {
	gateRtr, gatePeer = map[[2]int]int{}, map[[2]int]int{}
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		ga, gb := g.Vertices[e.A].Coord[0], g.Vertices[e.B].Coord[0]
		if ga == gb {
			continue
		}
		gateRtr[[2]int{ga, gb}] = e.A
		gateRtr[[2]int{gb, ga}] = e.B
		gatePeer[[2]int{e.A, gb}] = e.B
		gatePeer[[2]int{e.B, ga}] = e.A
	}
	return gateRtr, gatePeer
}

// TestDragonflyIndexMatchesMaps holds indexDragonfly's group lists and
// gate lists to the maps they replaced, on generated dragonflies (one
// global link per pair of groups) and on one whose groups share several
// global links, two of them between the same routers, and whose group
// numbers leave a gap.
func TestDragonflyIndexMatchesMaps(t *testing.T) {
	extra := topology.Dragonfly(3, 4, 2, 1)
	sw := extra.Switches() // routers[grp*3+r]
	extra.Connect(sw[0], sw[3])
	extra.Connect(sw[0], sw[3])
	extra.Connect(sw[1], sw[10])
	extra.Connect(sw[11], sw[2])
	far := extra.AddSwitch("far", 6, 0)
	extra.Connect(far, sw[4])
	extra.Connect(sw[7], far)
	for _, g := range []*topology.Graph{topology.Dragonfly(4, 9, 2, 1), topology.Dragonfly(2, 3, 1, 1), extra} {
		df, err := indexDragonfly(g)
		if err != nil {
			t.Fatal(err)
		}
		gateRtr, gatePeer := dragonflyMapsReference(g)
		var wantGroups [][]int
		for _, s := range g.Switches() {
			grp := g.Vertices[s].Coord[0]
			for len(wantGroups) <= grp {
				wantGroups = append(wantGroups, nil)
			}
			wantGroups[grp] = append(wantGroups[grp], s)
		}
		if len(df.groups) != len(wantGroups) {
			t.Fatalf("%s: %d groups, want %d", g.Name, len(df.groups), len(wantGroups))
		}
		for grp, want := range wantGroups {
			if !slices.Equal(df.groups[grp], want) {
				t.Errorf("%s: group %d routers %v, want %v", g.Name, grp, df.groups[grp], want)
			}
		}
		for ga := range wantGroups {
			for gb := range wantGroups {
				r, ok := df.gateway(ga, gb)
				wantR, wantOK := gateRtr[[2]int{ga, gb}]
				if r != wantR || ok != wantOK {
					t.Errorf("%s: gateway(%d, %d) = %d, %v, want %d, %v", g.Name, ga, gb, r, ok, wantR, wantOK)
				}
			}
			for _, s := range g.Switches() {
				if got, want := df.globalPeer(s, ga), gatePeer[[2]int{s, ga}]; got != want {
					t.Errorf("%s: globalPeer(%d, %d) = %d, want %d", g.Name, s, ga, got, want)
				}
			}
		}
	}
}
