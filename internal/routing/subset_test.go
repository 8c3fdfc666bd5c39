package routing

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// subsetCases pairs every DstComputer strategy with a topology it
// routes, for the subset-vs-full equivalence sweep.
func subsetCases() []struct {
	name     string
	strategy DstComputer
	graph    *topology.Graph
} {
	return []struct {
		name     string
		strategy DstComputer
		graph    *topology.Graph
	}{
		{"fattree", FatTreeDFS{}, topology.FatTree(4)},
		{"dragonfly", DragonflyMinimal{}, topology.Dragonfly(4, 9, 2, 1)},
		{"mesh2d", MeshXY{}, topology.Mesh2D(4, 4, 1)},
		{"mesh3d", MeshXYZ{}, topology.Mesh3D(3, 3, 3, 1)},
		{"torus2d", TorusClue{Dims: 2}, topology.Torus2D(4, 4, 1)},
		{"torus3d", TorusClue{Dims: 3}, topology.Torus3D(3, 3, 3, 1)},
		{"shortest-path", ShortestPath{}, topology.Line(6, 2)},
	}
}

// TestComputeForMatchesSubset pins the DstComputer contract: for every
// strategy, ComputeFor(g, subset) returns exactly the full Compute(g)
// route set restricted to those destinations — same rules, same order.
func TestComputeForMatchesSubset(t *testing.T) {
	for _, tc := range subsetCases() {
		t.Run(tc.name, func(t *testing.T) {
			full, err := tc.strategy.Compute(tc.graph)
			if err != nil {
				t.Fatal(err)
			}
			hosts := tc.graph.Hosts()
			// Every third host, plus the last one, fed in scrambled
			// order with a duplicate — ComputeFor must canonicalise.
			var subset []int
			for i := len(hosts) - 1; i >= 0; i -= 3 {
				subset = append(subset, hosts[i])
			}
			subset = append(subset, subset[0])
			sub, err := tc.strategy.ComputeFor(tc.graph, subset)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Strategy != full.Strategy || sub.NumVCs != full.NumVCs {
				t.Fatalf("metadata mismatch: %q/%d vs %q/%d",
					sub.Strategy, sub.NumVCs, full.Strategy, full.NumVCs)
			}
			inSubset := map[int]bool{}
			for _, d := range subset {
				inSubset[d] = true
			}
			var want []Rule
			for _, rule := range full.Rules {
				if inSubset[rule.Dst] {
					want = append(want, rule)
				}
			}
			if len(sub.Rules) != len(want) {
				t.Fatalf("ComputeFor: %d rules, want %d", len(sub.Rules), len(want))
			}
			for i := range want {
				if sub.Rules[i] != want[i] {
					t.Fatalf("rule %d: %+v, want %+v", i, sub.Rules[i], want[i])
				}
			}
			// Subset routes must deliver between subset hosts.
			for _, s := range subset {
				for _, d := range subset {
					if s == d {
						continue
					}
					if _, err := sub.TracePath(s, d); err != nil {
						t.Fatalf("trace %d->%d: %v", s, d, err)
					}
				}
			}
		})
	}
}

// TestComputeForRejectsNonHosts pins the validation error: ComputeFor
// with a switch vertex or an out-of-range ID fails loudly.
func TestComputeForRejectsNonHosts(t *testing.T) {
	g := topology.FatTree(4)
	sw := g.Switches()[0]
	cases := [][]int{{sw}, {-1}, {len(g.Vertices)}}
	for _, bad := range cases {
		if _, err := (FatTreeDFS{}).ComputeFor(g, bad); err == nil {
			t.Errorf("ComputeFor(%v): want error, got nil", bad)
		} else if !strings.Contains(err.Error(), "not a host") {
			t.Errorf("ComputeFor(%v): error %q does not name the bad destination", bad, err)
		}
	}
}

// TestComputeForErrorIgnoresOrder: a destination set with several bad
// entries fails with the same message in any order, naming the
// smallest bad destination, as the result itself does not depend on
// the order.
func TestComputeForErrorIgnoresOrder(t *testing.T) {
	g := topology.FatTree(4)
	host, sw := g.Hosts()[0], g.Switches()[0]
	orders := [][]int{{host, len(g.Vertices) + 3, sw}, {sw, len(g.Vertices) + 3, host}, {len(g.Vertices) + 3, host, sw}}
	want := fmt.Sprintf("destination %d is not a host", sw)
	for _, dsts := range orders {
		_, err := (FatTreeDFS{}).ComputeFor(g, dsts)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ComputeFor(%v): error %v, want one naming %d", dsts, err, sw)
		}
	}
}

// TestComputeRejectsRulesRunsCannotHold: a destination's run keeps its
// rules as int32 fields under the run's destination, so a build that
// emits a rule toward another host, on a switch that is not a vertex,
// or with a field int32 cannot hold, fails the compute instead of
// yielding a truncated rule or one that matches nothing.
func TestComputeRejectsRulesRunsCannotHold(t *testing.T) {
	g := topology.FatTree(4)
	dsts := g.Hosts()[:3]
	wide := int64(math.MaxInt32) + 1
	cases := []struct {
		name string
		bad  func(dst int) Rule
	}{
		{"foreign destination", func(dst int) Rule {
			return Rule{Switch: 0, Dst: dst + 1, Tag: openflow.Any, OutPort: 1, NewTag: -1}
		}},
		{"wide out port", func(dst int) Rule {
			return Rule{Switch: 0, Dst: dst, Tag: openflow.Any, OutPort: int(wide), NewTag: -1}
		}},
		{"wide negative switch", func(dst int) Rule {
			return Rule{Switch: -int(wide) - 1, Dst: dst, Tag: openflow.Any, OutPort: 1, NewTag: -1}
		}},
		{"switch -1", func(dst int) Rule {
			return Rule{Switch: -1, Dst: dst, Tag: openflow.Any, OutPort: 1, NewTag: -1}
		}},
		{"switch past the vertices", func(dst int) Rule {
			return Rule{Switch: len(g.Vertices), Dst: dst, Tag: openflow.Any, OutPort: 1, NewTag: -1}
		}},
	}
	for _, c := range cases {
		if strings.HasPrefix(c.name, "wide") && strconv.IntSize == 32 {
			continue // every int fits int32
		}
		r := newRoutes(g, "test", 1)
		err := computeForDsts(r, g, dsts, func(dst int, emit func(Rule)) error {
			emit(Rule{Switch: 0, Dst: dst, Tag: openflow.Any, OutPort: 1, NewTag: -1})
			if dst == dsts[1] {
				emit(c.bad(dst))
			}
			return nil
		})
		if err == nil || r.Rules != nil {
			t.Errorf("%s: err %v and %d rules, want an error and no rules", c.name, err, len(r.Rules))
		}
	}
}

// TestComputeForNilIsFull pins the nil-destinations convenience: a nil
// subset computes the full route set.
func TestComputeForNilIsFull(t *testing.T) {
	g := topology.FatTree(4)
	full, err := FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	all, err := FatTreeDFS{}.ComputeFor(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rules) != len(full.Rules) {
		t.Fatalf("ComputeFor(nil): %d rules, want %d", len(all.Rules), len(full.Rules))
	}
}

// TestForTopologyStrategiesAreDstComputers keeps every registered
// Table III strategy inside the DstComputer contract — flowsim's
// subset routing depends on it for all generated topologies.
func TestForTopologyStrategiesAreDstComputers(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.FatTree(4),
		topology.Dragonfly(4, 9, 2, 1),
		topology.Mesh2D(3, 3, 1),
		topology.Mesh3D(3, 3, 3, 1),
		topology.Torus2D(4, 4, 1),
		topology.Torus3D(3, 3, 3, 1),
		topology.Line(4, 1),
	} {
		if _, ok := ForTopology(g).(DstComputer); !ok {
			t.Errorf("ForTopology(%s) = %T is not a DstComputer", g.Name, ForTopology(g))
		}
	}
}

// spreadHosts picks n hosts evenly across g's host list, as
// core.PickSpread places ranks.
func spreadHosts(g *topology.Graph, n int) []int {
	hosts := g.Hosts()
	out := make([]int, n)
	for i := range out {
		out[i] = hosts[i*len(hosts)/n]
	}
	return out
}

// TestComputeForAllocsBounded pins route set-up to O(1) allocations per
// destination: a subset compute plus the first Lookup (which builds the
// index) may allocate per destination — a bucket, two closures — and a
// constant number of arrays, but nothing per rule or per switch; runs
// of one shape, as the fat-tree's are, allocate nothing per
// destination at all. The
// map-backed index this budget replaced allocated a slice per (switch,
// dst): ~20 000 objects on the fat-tree. The torus case catches a rule
// build that moves a per-(switch, dst) buffer to the heap (64 × 63
// objects here) or per-switch port lists (about 7 per switch, 448).
func TestComputeForAllocsBounded(t *testing.T) {
	const dstCount = 64
	for _, c := range []struct {
		strat  DstComputer
		g      *topology.Graph
		budget float64
	}{
		{FatTreeDFS{}, topology.FatTree(16), 32},
		{TorusClue{Dims: 3}, topology.Torus3D(4, 4, 4, 1), 4*dstCount + 64},
	} {
		g := c.g
		dsts := spreadHosts(g, dstCount)
		g.CSR()
		g.Hosts()
		var rules int
		allocs := testing.AllocsPerRun(5, func() {
			r, err := c.strat.ComputeFor(g, dsts)
			if err != nil {
				t.Fatal(err)
			}
			if r.Lookup(g.Switches()[0], 1, dsts[0], 0) == nil {
				t.Fatal("no rule toward a computed destination")
			}
			rules = len(r.Rules)
		})
		// Measured on the fat-tree: 19, none per destination — its runs
		// have one shape, so a block builder builds them a block at a
		// time into one buffer it reuses — for the coordinate tables,
		// the block builder (buffer, views, emit closure), the layout,
		// the rule array, rowOff and the fan-out. On the torus: 248 = 2
		// per destination past the first block (a run and its emit
		// closure) + 136, with the per-dimension port lists in one flat
		// array (719 when each switch grew a list per dimension).
		if allocs > c.budget {
			t.Errorf("%s on %s: ComputeFor + first Lookup: %.0f allocations for %d dsts and %d rules, budget %.0f",
				c.strat.Name(), g.Name, allocs, len(dsts), rules, c.budget)
		}
	}
}

// setupBytesPerRule returns the bytes a FatTreeDFS subset compute plus
// the first Lookup allocates per rule it keeps, on FatTree(16) toward 64
// spread destinations (20 480 rules), averaged over five warm runs, at
// two workers: each worker past the first adds a block buffer (2.5
// bytes per rule here), so the figure would otherwise follow the
// host's core count.
func setupBytesPerRule(t *testing.T) float64 {
	defer func() { computeWorkers = 0 }()
	computeWorkers = 2
	g := topology.FatTree(16)
	dsts := spreadHosts(g, 64)
	g.CSR()
	g.Hosts()
	var rules int
	run := func() {
		r, err := FatTreeDFS{}.ComputeFor(g, dsts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Lookup(g.Switches()[0], 1, dsts[0], 0) == nil {
			t.Fatal("no rule toward a computed destination")
		}
		rules = len(r.Rules)
	}
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(rules)
}

// TestComputeForBytesBounded is the bytes budget beside the allocation
// one: route set-up allocates the rules it returns (a Rule each, 48
// bytes) and on the way, for runs of one shape, two block buffers of 8
// runs (2.5 bytes per rule each), plus per-switch and per-vertex
// arrays; a fat-tree set is its own index order, so its index holds no
// per-rule permutation. Measured: 55.2 bytes per rule on amd64 (less
// where int is 32 bits); the budget adds 8.7 %. Keeping a 20-byte run
// entry for every rule (70.1 bytes per rule), or a second 48-byte copy
// of every rule as per-destination Rule buckets did (106), fails it.
func TestComputeForBytesBounded(t *testing.T) {
	const budget = 60.0
	got := setupBytesPerRule(t)
	t.Logf("ComputeFor + first Lookup: %.1f bytes per rule", got)
	if got > budget {
		t.Errorf("ComputeFor + first Lookup: %.1f bytes per rule, budget %.1f", got, budget)
	}
}

// BenchmarkComputeForXL is route set-up as the flow-xl benchmark cell
// pays it: FatTree(48), 256 spread destinations, 737 280 rules, and the
// first Lookup so the index build is inside the timed region.
func BenchmarkComputeForXL(b *testing.B) {
	g := topology.FatTree(48)
	dsts := spreadHosts(g, 256)
	g.CSR()
	g.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := FatTreeDFS{}.ComputeFor(g, dsts)
		if err != nil {
			b.Fatal(err)
		}
		if r.Lookup(g.Switches()[0], 1, dsts[0], 0) == nil {
			b.Fatalf("no rule toward %d among %d", dsts[0], len(r.Rules))
		}
	}
}

// TestForEachBlockMatchesComputeFor: every block ForEachBlock hands a
// visitor holds exactly ComputeFor's rules toward the block, in
// ComputeFor's order, for every strategy, at one worker and at four,
// and every destination is in one block.
func TestForEachBlockMatchesComputeFor(t *testing.T) {
	defer func() { computeWorkers = 0 }()
	for _, tc := range subsetCases() {
		hosts := tc.graph.Hosts()
		for _, workers := range []int{1, 4} {
			computeWorkers = workers
			var mu sync.Mutex
			seen := map[int]int{}
			err := ForEachBlock(tc.graph, tc.strategy, hosts, func(int) func(*Routes, []int) {
				return func(r *Routes, block []int) {
					want, err := tc.strategy.ComputeFor(tc.graph, block)
					if err != nil {
						t.Error(err)
						return
					}
					if r.Strategy != want.Strategy || r.NumVCs != want.NumVCs || !slices.Equal(r.Rules, want.Rules) {
						t.Errorf("%s, %d workers: the block toward %v holds %d rules, ComputeFor %d, or they differ",
							tc.name, workers, block, len(r.Rules), len(want.Rules))
					}
					mu.Lock()
					for _, d := range block {
						seen[d]++
					}
					mu.Unlock()
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, h := range hosts {
				if seen[h] != 1 {
					t.Errorf("%s, %d workers: host %d is in %d blocks", tc.name, workers, h, seen[h])
				}
			}
		}
	}
}

// failingAt is shortest-path routing whose build fails toward the
// hosts it names.
type failingAt map[int]bool

func (failingAt) Name() string { return "failing" }

func (f failingAt) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, f.plan(), nil)
}

func (f failingAt) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, f.plan(), dsts)
}

func (f failingAt) plan() dstPlan {
	return dstPlan{"failing", 1, func(g *topology.Graph) (func(int, func(Rule)) error, error) {
		build, err := shortestPathBuilder(g)
		return func(dst int, emit func(Rule)) error {
			if f[dst] {
				return fmt.Errorf("no route toward %d", dst)
			}
			return build(dst, emit)
		}, err
	}}
}

// TestForEachBlockReportsLowestFailure: when builds fail in several
// blocks, ForEachBlock returns ComputeFor's error, the lowest failing
// destination's, at one worker and at four, and visits every block
// below it.
func TestForEachBlockReportsLowestFailure(t *testing.T) {
	defer func() { computeWorkers = 0 }()
	g := topology.FatTree(8)
	hosts := g.Hosts()
	strat := failingAt{hosts[100]: true, hosts[41]: true, hosts[43]: true, hosts[90]: true}
	_, want := strat.ComputeFor(g, hosts)
	if want == nil || want.Error() != fmt.Sprintf("no route toward %d", hosts[41]) {
		t.Fatalf("ComputeFor: %v", want)
	}
	for _, workers := range []int{1, 4} {
		computeWorkers = workers
		var visited atomic.Int64
		err := ForEachBlock(g, strat, hosts, func(int) func(*Routes, []int) {
			return func(_ *Routes, block []int) {
				if block[0] < hosts[41] {
					visited.Add(1)
				}
			}
		})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%d workers: %v, want %v", workers, err, want)
		}
		if got := visited.Load(); got != 41/shapeBlock {
			t.Errorf("%d workers: %d blocks below the failure visited, want %d", workers, got, 41/shapeBlock)
		}
	}
}
