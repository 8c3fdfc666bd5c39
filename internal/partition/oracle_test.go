package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// The three functions below are the pre-incremental refine, rebalance
// and connTo, kept verbatim (names aside) as the slow oracle for
// refiner: every candidate move re-derives its connectivity from the
// adjacency list, so there is no table that could go stale.

// connToReference computes v's edge weight toward each part, returned as a dense
// slice for deterministic iteration.
func connToReference(g *workGraph, part []int, v, k int, buf []int) []int {
	if cap(buf) < k {
		buf = make([]int, k)
	}
	buf = buf[:k]
	for i := range buf {
		buf[i] = 0
	}
	for _, nb := range g.xadj[v] {
		buf[part[nb.v]] += nb.w
	}
	return buf
}

// refineReference runs FM-style passes: move boundary vertices to the neighbour
// part with the best gain, respecting balance for the Balanced
// objective, then explicitly rebalances overweight parts.
func refineReference(g *workGraph, part []int, k int, opt Options, rng *rand.Rand) {
	n := len(g.vwgt)
	weight := make([]int, k)
	total := 0
	for v := 0; v < n; v++ {
		weight[part[v]] += g.vwgt[v]
		total += g.vwgt[v]
	}
	// The move limit must leave room for at least one vertex move above
	// the mean, or a perfectly balanced partition could never be refined
	// (every single move temporarily overweights the destination).
	maxVwgt := 0
	for _, w := range g.vwgt {
		if w > maxVwgt {
			maxVwgt = w
		}
	}
	mean := float64(total) / float64(k)
	maxAllowed := int(mean * (1 + opt.Epsilon))
	if min := int(mean) + maxVwgt; maxAllowed < min {
		maxAllowed = min
	}
	if opt.Objective == MinCut {
		maxAllowed = total // unconstrained
	}
	partCount := make([]int, k)
	for v := 0; v < n; v++ {
		partCount[part[v]]++
	}
	var conn []int

	type move struct {
		v, from, to int
	}
	locked := make([]bool, n)

	for pass := 0; pass < opt.Passes; pass++ {
		// Classic FM sequence: repeatedly apply the best feasible move
		// (even if its gain is negative), locking each vertex after it
		// moves, then roll back to the prefix with the lowest cut.
		for i := range locked {
			locked[i] = false
		}
		var seq []move
		cumGain := 0
		bestGainAt, bestGainVal := -1, 0
		_ = rng
		for step := 0; step < n; step++ {
			bestV, bestDst := -1, -1
			bestGain := -(1 << 30)
			for v := 0; v < n; v++ {
				if locked[v] {
					continue
				}
				home := part[v]
				if partCount[home] <= 1 {
					continue
				}
				conn = connToReference(g, part, v, k, conn)
				for p := 0; p < k; p++ {
					if p == home {
						continue
					}
					if conn[p] == 0 && g.xadj[v] != nil && opt.Objective == Balanced {
						continue // keep parts contiguous when possible
					}
					if weight[p]+g.vwgt[v] > maxAllowed {
						continue
					}
					gain := conn[p] - conn[home]
					if gain > bestGain {
						bestGain, bestV, bestDst = gain, v, p
					}
				}
			}
			if bestV < 0 {
				break
			}
			home := part[bestV]
			weight[home] -= g.vwgt[bestV]
			weight[bestDst] += g.vwgt[bestV]
			partCount[home]--
			partCount[bestDst]++
			part[bestV] = bestDst
			locked[bestV] = true
			seq = append(seq, move{bestV, home, bestDst})
			cumGain += bestGain
			if cumGain > bestGainVal {
				bestGainVal = cumGain
				bestGainAt = len(seq) - 1
			}
			if bestGain < 0 && len(seq) > n/2 {
				break // deep in a losing streak; stop early
			}
		}
		// Roll back moves after the best prefix.
		for i := len(seq) - 1; i > bestGainAt; i-- {
			m := seq[i]
			weight[m.to] -= g.vwgt[m.v]
			weight[m.from] += g.vwgt[m.v]
			partCount[m.to]--
			partCount[m.from]++
			part[m.v] = m.from
		}
		improved := bestGainAt >= 0
		if opt.Objective == Balanced {
			if rebalanceReference(g, part, k, weight, partCount, maxAllowed, &conn) > 0 {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// rebalanceReference drains overweight parts by moving their cheapest boundary
// vertices into the lightest adjacent part, even at a cut cost.
func rebalanceReference(g *workGraph, part []int, k int, weight, partCount []int, maxAllowed int, connBuf *[]int) int {
	moved := 0
	for iter := 0; iter < len(part); iter++ {
		// Heaviest over-limit part.
		over := -1
		for p := 0; p < k; p++ {
			if weight[p] > maxAllowed && (over < 0 || weight[p] > weight[over]) {
				over = p
			}
		}
		if over < 0 {
			break
		}
		// Best vertex to evict: smallest cut damage, moved to the
		// lightest part it touches (or the global lightest part).
		bestV, bestDst, bestCost := -1, -1, 1<<30
		for v := 0; v < len(part); v++ {
			if part[v] != over || partCount[over] <= 1 {
				continue
			}
			conn := connToReference(g, part, v, k, *connBuf)
			*connBuf = conn
			for p := 0; p < k; p++ {
				// Only move toward parts currently lighter than the
				// overweight source.
				if p == over || weight[p] >= weight[over] {
					continue
				}
				cost := conn[over] - conn[p]
				if cost < bestCost {
					bestV, bestDst, bestCost = v, p, cost
				}
			}
		}
		if bestV < 0 {
			break
		}
		weight[over] -= g.vwgt[bestV]
		weight[bestDst] += g.vwgt[bestV]
		partCount[over]--
		partCount[bestDst]++
		part[bestV] = bestDst
		moved++
	}
	return moved
}

// testOptions are Options as Cut hands them to refine: defaults filled.
func testOptions(obj Objective) Options {
	return Options{Objective: obj, Epsilon: 0.10, Passes: 4}
}

// diffMultilevel replays multilevel's coarsen / initial-partition /
// uncoarsen chain for one restart seed and, at every level, refines a
// copy of the incoming partition with rf and another with the oracle.
// The two must agree element for element; the chain continues from the
// oracle's result. rf is deliberately shared between calls so state
// left over from another level, seed or objective would show.
func diffMultilevel(t testing.TB, name string, wg *workGraph, k int, opt Options, seed int64, rf *refiner) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := []*workGraph{wg}
	var maps [][]int
	for len(graphs[len(graphs)-1].vwgt) > max(4*k, 32) {
		next, cmap, shrunk := coarsen(graphs[len(graphs)-1], rng)
		if !shrunk {
			break
		}
		graphs = append(graphs, next)
		maps = append(maps, cmap)
	}
	both := func(lvl int, part []int) []int {
		got, want := slices.Clone(part), slices.Clone(part)
		rf.refine(graphs[lvl], got, opt)
		refineReference(graphs[lvl], want, k, opt, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("%s k=%d objective=%d seed=%d level %d (n=%d): refine diverged from the oracle\n got %v\nwant %v",
				name, k, opt.Objective, seed, lvl, len(want), got, want)
		}
		return want
	}
	part := both(len(graphs)-1, initialPartition(graphs[len(graphs)-1], k, opt, rng))
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := make([]int, len(graphs[lvl].vwgt))
		for v := range fine {
			fine[v] = part[maps[lvl][v]]
		}
		part = both(lvl, fine)
	}
}

// referenceGraphs is the differential suites' graph list: every
// topology generator, the 261-graph zoo and 50 more random WANs; with
// -short, its first 40.
func referenceGraphs() []*topology.Graph {
	topos := []*topology.Graph{
		topology.FatTree(4), topology.FatTree(6), topology.FatTree(8),
		topology.Dragonfly(4, 9, 2, 1),
		topology.Torus2D(4, 4, 1), topology.Torus2D(6, 6, 1), topology.Torus3D(3, 3, 3, 1), topology.Torus3D(4, 4, 4, 1),
		topology.BCube(4, 1), topology.Mesh2D(5, 5, 1), topology.Line(8, 1),
	}
	topos = append(topos, topology.Zoo(41)...)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		n := 4 + rng.Intn(193)
		topos = append(topos, topology.RandomWAN(fmt.Sprintf("wan-%d", i), n, rng.Intn(n), rng.Int63()))
	}
	if testing.Short() {
		topos = topos[:40]
	}
	return topos
}

// TestRefineMatchesReference is the differential suite the incremental
// refine lives under: referenceGraphs, k = 2…8, both objectives, three
// restart seeds.
func TestRefineMatchesReference(t *testing.T) {
	for _, g := range referenceGraphs() {
		wg := newWorkGraph(g, g.Switches())
		for k := 2; k <= 8 && k <= len(wg.vwgt); k++ {
			var rf refiner
			rf.reset(len(wg.vwgt), k)
			for _, obj := range []Objective{Balanced, MinCut} {
				for _, seed := range []int64{12345, 12345 + 7919, 3} {
					diffMultilevel(t, g.Name, wg, k, testOptions(obj), seed, &rf)
				}
			}
		}
	}
}

// randomWorkGraph draws a graph of n vertices weighing 1–8, up to ne
// distinct edges weighing 1–3 (some vertices isolated), and a random
// k-way partition of it (some parts empty or singletons).
func randomWorkGraph(rng *rand.Rand, n, ne, k int) (*workGraph, []int) {
	g := &workGraph{vwgt: make([]int, n), xadj: make([][]nbr, n)}
	for v := range g.vwgt {
		g.vwgt[v] = 1 + rng.Intn(8)
	}
	seen := map[[2]int]bool{}
	for i := 0; i < ne; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		w := 1 + rng.Intn(3)
		g.xadj[a] = append(g.xadj[a], nbr{b, w})
		g.xadj[b] = append(g.xadj[b], nbr{a, w})
	}
	g.sortAdj()
	part := make([]int, n)
	for v := range part {
		part[v] = rng.Intn(k)
	}
	return g, part
}

// checkRebalance runs rebalance on a copy of part and rebalanceReference,
// which makes every move, on another, and requires the same partition,
// part weights, connectivity table and move count. It reports whether
// the n-move cap ended the run.
func checkRebalance(t *testing.T, g *workGraph, part []int, k, maxAllowed int) bool {
	t.Helper()
	n := len(part)
	got, want := slices.Clone(part), slices.Clone(part)
	var rf refiner
	rf.reset(n, k)
	rf.load(g, got)
	moved := rf.rebalance(maxAllowed)

	weight, partCount := make([]int, k), make([]int, k)
	for v, p := range want {
		weight[p] += g.vwgt[v]
		partCount[p]++
	}
	var buf []int
	wantMoved := rebalanceReference(g, want, k, weight, partCount, maxAllowed, &buf)
	if !slices.Equal(got, want) || moved != wantMoved {
		t.Fatalf("n=%d k=%d maxAllowed=%d: rebalance made %d moves to %v, the oracle %d to %v\nfrom %v",
			n, k, maxAllowed, moved, got, wantMoved, want, part)
	}
	var fresh refiner
	fresh.reset(n, k)
	fresh.load(g, slices.Clone(want))
	if !slices.Equal(rf.weight, weight) || !slices.Equal(rf.partCount, partCount) || !slices.Equal(rf.conn[:n*k], fresh.conn[:n*k]) {
		t.Fatalf("n=%d k=%d maxAllowed=%d: rebalance left weight %v, partCount %v or conn stale (want %v, %v)",
			n, k, maxAllowed, rf.weight, rf.partCount, weight, partCount)
	}
	return moved == n
}

// TestRebalanceCycleMatchesReference drives rebalance into move cycles
// that only the n-move cap ends, which rebalance skips over, and holds
// it to the oracle. A limit below every part's weight makes each move
// merely hand "heaviest" to another part. The first case is a two-move
// cycle by construction: two weight-3 vertices, 0 and 1, in parts 0 and
// 1, and 100 unit vertices in each part but one short in part 1; vertex
// 0 has the lowest index, so it is the one evicted, back and forth, 201
// times. The random cases find cycles of other periods.
func TestRebalanceCycleMatchesReference(t *testing.T) {
	const light = 100
	n := 2 + 2*light - 1
	g := &workGraph{vwgt: make([]int, n), xadj: make([][]nbr, n)}
	part := make([]int, n)
	for v := range g.vwgt {
		g.vwgt[v], part[v] = 1, v%2
	}
	g.vwgt[0], g.vwgt[1] = 3, 3
	if !checkRebalance(t, g, part, 2, 1) {
		t.Fatal("the constructed two-move cycle did not run to the n-move cap")
	}

	rng := rand.New(rand.NewSource(11))
	capped := 0
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(60)
		k := 2 + rng.Intn(min(7, n-1))
		g, part := randomWorkGraph(rng, n, rng.Intn(3*n), k)
		total := 0
		for _, w := range g.vwgt {
			total += w
		}
		if checkRebalance(t, g, part, k, rng.Intn(total/k+1)) {
			capped++
		}
	}
	if capped < 100 {
		t.Fatalf("only %d of 3000 random cases ran to the n-move cap; the test no longer reaches cycles", capped)
	}
}

// FuzzRefineDifferential checks refine against the oracle from states
// the multilevel chain never produces: a random weighted graph (some
// vertices isolated, some parts empty or singletons) under a random
// initial partition.
func FuzzRefineDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(20), uint8(3), false)
	f.Add(int64(2), uint8(40), uint8(90), uint8(8), true)
	f.Add(int64(3), uint8(5), uint8(0), uint8(5), false)
	f.Add(int64(4), uint8(64), uint8(255), uint8(2), false)
	// Each pass of these three ends in a rebalance cycle that only the
	// n-move cap stops (n = 32, 62, 80; k = 7, 4, 8).
	f.Add(int64(7), uint8(30), uint8(238), uint8(173), false)
	f.Add(int64(80), uint8(252), uint8(8), uint8(205), false)
	f.Add(int64(122), uint8(78), uint8(10), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, kk uint8, minCut bool) {
		n := 2 + int(nv)%96
		k := 2 + int(kk)%7
		if k > n {
			k = n
		}
		rng := rand.New(rand.NewSource(seed))
		g, part := randomWorkGraph(rng, n, int(ne), k)
		opt := testOptions(Balanced)
		if minCut {
			opt.Objective = MinCut
		}
		got, want := slices.Clone(part), slices.Clone(part)
		var rf refiner
		rf.reset(n+rng.Intn(4), k) // scratch may be larger than the level
		rf.refine(g, got, opt)
		refineReference(g, want, k, opt, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d minCut=%v: refine diverged from the oracle\nfrom %v\n got %v\nwant %v", n, k, minCut, part, got, want)
		}
		rf.refine(g, got, opt) // a second call on the same scratch starts clean
		refineReference(g, want, k, opt, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d minCut=%v: second refine on reused scratch diverged", n, k, minCut)
		}
	})
}

// wan190 is the shape that dominates the zoo scan: a sparse 190-switch
// WAN, one host per switch.
func wan190() *topology.Graph { return topology.RandomWAN("wan-190", 190, 57, 1) }

func BenchmarkCut(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *topology.Graph
		k    int
	}{
		{"fattree8-k8", topology.FatTree(8), 8},
		{"wan190-k3", wan190(), 3},
		{"torus3d-8x8x8-k8", topology.Torus3D(8, 8, 8, 0), 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cut(c.g, c.k, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCutAllocsBounded keeps refine's scratch out of the per-level
// path. One Cut of the 190-switch WAN allocated 15 033 objects before
// the refiner, 7 588 with it, 781 once the coarsening's pair maps
// became marker arrays and the restarts stopped seeding a math/rand
// source each — the graph build, 8 coarsening chains and initial
// partitions — and about 770 since the workers' refiners come from a
// pool. refine itself, on pooled scratch, allocates nothing at all,
// which is the half of the bound that a per-level or per-pass make
// cannot slip under.
func TestCutAllocsBounded(t *testing.T) {
	g := wan190()
	perCut := testing.AllocsPerRun(5, func() {
		if _, err := Cut(g, 3, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 850
	if perCut > limit {
		t.Errorf("Cut(wan-190, 3) allocates %.0f objects, limit %d", perCut, limit)
	}

	wg := newWorkGraph(g, g.Switches())
	opt := testOptions(Balanced)
	start := initialPartition(wg, 3, opt, rand.New(rand.NewSource(1)))
	part := make([]int, len(start))
	w := workers.Get().(*worker)
	defer workers.Put(w)
	w.rf.reset(len(start), 3)
	perRefine := testing.AllocsPerRun(5, func() {
		copy(part, start)
		w.rf.refine(wg, part, opt)
	})
	if perRefine != 0 {
		t.Errorf("refine on pooled scratch allocates %.0f objects, want 0", perRefine)
	}
}
