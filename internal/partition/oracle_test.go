package partition

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
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
// part with the best gain, respecting balance, then explicitly
// rebalances overweight parts.
func refineReference(g *workGraph, part []int, k int, rng *rand.Rand) {
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
	maxAllowed := int(mean * (1 + epsilon))
	if min := int(mean) + maxVwgt; maxAllowed < min {
		maxAllowed = min
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

	for pass := 0; pass < passes; pass++ {
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
					if conn[p] == 0 && g.xadj[v] != nil {
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
		if rebalanceReference(g, part, k, weight, partCount, maxAllowed, &conn) > 0 {
			improved = true
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

// The four functions below are the allocating multilevel chain —
// fresh slices at every level of every restart, rand.Perm's own slice —
// kept verbatim (names aside) as the reference for the worker's reused
// storage: FuzzMultilevelScratch holds worker.multilevel to
// multilevelReference, and serialMultistart runs Cut's restarts on it.

// multilevelReference runs coarsen / initial-partition / refine.
func multilevelReference(wg *workGraph, k int, rng *rand.Rand, rf *refiner) []int {
	coarseLimit := 4 * k
	if coarseLimit < 32 {
		coarseLimit = 32
	}

	// Coarsening chain.
	graphs := []*workGraph{wg}
	maps := [][]int{} // maps[i]: vertex of graphs[i] -> vertex of graphs[i+1]
	for len(graphs[len(graphs)-1].vwgt) > coarseLimit {
		cur := graphs[len(graphs)-1]
		next, cmap, shrunk := coarsenReference(cur, rng)
		if !shrunk {
			break
		}
		graphs = append(graphs, next)
		maps = append(maps, cmap)
	}

	coarsest := graphs[len(graphs)-1]
	part := initialPartitionReference(coarsest, k, rng)
	rf.refine(coarsest, part)

	// Project back up, refining at each level.
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := graphs[lvl]
		cmap := maps[lvl]
		finePart := make([]int, len(fine.vwgt))
		for v := range finePart {
			finePart[v] = part[cmap[v]]
		}
		part = finePart
		rf.refine(fine, part)
	}
	return part
}

// coarsenReference contracts a heavy-edge matching. Returns the coarse graph, the
// fine→coarse map, and whether the graph actually shrank.
func coarsenReference(g *workGraph, rng *rand.Rand) (*workGraph, []int, bool) {
	n := len(g.vwgt)
	order := rng.Perm(n)
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best, bestW := -1, -1
		for _, nb := range g.xadj[v] {
			if match[nb.v] < 0 && nb.w > bestW {
				best, bestW = nb.v, nb.w
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	cmap := make([]int, n)
	nc := 0
	for v := 0; v < n; v++ {
		if match[v] >= v { // representative
			cmap[v] = nc
			if match[v] != v {
				cmap[match[v]] = nc
			}
			nc++
		}
	}
	if nc >= n {
		return nil, nil, false
	}
	coarse := &workGraph{
		vwgt: make([]int, nc),
		xadj: make([][]nbr, nc),
	}
	half := 0
	for v := 0; v < n; v++ {
		coarse.vwgt[cmap[v]] += g.vwgt[v]
		half += len(g.xadj[v])
	}
	// Each coarse row is its members' fine rows mapped through cmap,
	// with the edges inside the pair dropped and parallel ones merged.
	var rows adjRows
	rows.reset(nil, nc, half)
	for v := 0; v < n; v++ {
		if match[v] < v {
			continue // not a representative
		}
		c := cmap[v]
		for _, u := range [2]int{v, match[v]} {
			for _, nb := range g.xadj[u] {
				if d := cmap[nb.v]; d != c {
					rows.add(d, nb.w)
				}
			}
			if match[v] == v {
				break
			}
		}
		coarse.xadj[c] = rows.end()
	}
	coarse.sortAdj()
	return coarse, cmap, true
}

// initialPartitionReference grows k regions greedily from spread-out seeds,
// balancing vertex weight.
func initialPartitionReference(g *workGraph, k int, rng *rand.Rand) []int {
	n := len(g.vwgt)
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	total := 0
	for _, w := range g.vwgt {
		total += w
	}
	target := float64(total) / float64(k)

	// Seeds: BFS-farthest spreading.
	seeds := make([]int, 0, k)
	first := rng.Intn(n)
	seeds = append(seeds, first)
	dist := bfsDistReference(g, first)
	for len(seeds) < k {
		far, farD := -1, -1
		for v := 0; v < n; v++ {
			if dist[v] > farD {
				far, farD = v, dist[v]
			}
		}
		if far < 0 {
			far = rng.Intn(n)
		}
		seeds = append(seeds, far)
		d2 := bfsDistReference(g, far)
		for v := range dist {
			if d2[v] < dist[v] {
				dist[v] = d2[v]
			}
		}
	}

	weight := make([]int, k)
	type frontierItem struct{ v, p int }
	var frontier []frontierItem
	for p, s := range seeds {
		if part[s] == -1 {
			part[s] = p
			weight[p] += g.vwgt[s]
			for _, nb := range g.xadj[s] {
				frontier = append(frontier, frontierItem{nb.v, p})
			}
		}
	}
	// Greedy growth: repeatedly let the lightest part claim a frontier
	// vertex.
	for {
		// Find lightest part with available frontier.
		progress := false
		slices.SortStableFunc(frontier, func(a, b frontierItem) int {
			return cmp.Compare(weight[a.p], weight[b.p])
		})
		var rest []frontierItem
		for _, f := range frontier {
			if part[f.v] != -1 {
				continue
			}
			if float64(weight[f.p]) > target*1.5 {
				rest = append(rest, f)
				continue
			}
			part[f.v] = f.p
			weight[f.p] += g.vwgt[f.v]
			progress = true
			for _, nb := range g.xadj[f.v] {
				if part[nb.v] == -1 {
					rest = append(rest, frontierItem{nb.v, f.p})
				}
			}
		}
		frontier = rest
		if !progress {
			break
		}
	}
	// Orphans (disconnected or squeezed out): assign to lightest part.
	for v := 0; v < n; v++ {
		if part[v] == -1 {
			light := 0
			for p := 1; p < k; p++ {
				if weight[p] < weight[light] {
					light = p
				}
			}
			part[v] = light
			weight[light] += g.vwgt[v]
		}
	}
	return part
}

func bfsDistReference(g *workGraph, src int) []int {
	n := len(g.vwgt)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = n + 1
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, nb := range g.xadj[v] {
			if dist[nb.v] > dist[v]+1 {
				dist[nb.v] = dist[v] + 1
				queue = append(queue, nb.v)
			}
		}
	}
	return dist
}

// newTestWorker is a worker as getWorker makes one, outside the idle
// list.
func newTestWorker() *worker {
	w := &worker{}
	w.rng = rand.New(&w.src)
	return w
}

// FuzzMultilevelScratch runs random work graphs of changing size and k
// through one worker, its storage reused dirty from graph to
// graph, and requires each partition to equal multilevelReference's
// from the same restart seed, and the in-place perm to draw rand.Perm's
// permutation from the same stream.
func FuzzMultilevelScratch(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(3))
	f.Add(int64(2), uint8(40), uint8(8))
	f.Add(int64(3), uint8(255), uint8(2))
	f.Add(int64(4), uint8(90), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, maxN, kk uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := newTestWorker()
		out := make([]int, 0, 8)
		for round := 0; round < 6; round++ {
			n := 2 + rng.Intn(1+int(maxN))
			k := min(2+rng.Intn(1+int(kk)%8), n)
			g, _ := randomWorkGraph(rng, n, rng.Intn(4*n), k)
			rseed := rng.Int63()

			w.src.Seed(rseed)
			w.perm = resize(w.perm, n)
			perm(w.rng, w.perm)
			if want := rand.New(rand.NewSource(rseed)).Perm(n); !slices.Equal(w.perm, want) {
				t.Fatalf("round %d: perm(%d) = %v, rand.Perm %v", round, n, w.perm, want)
			}

			w.src.Seed(rseed)
			w.rf.reset(n, k)
			out = resize(out, n) // dirty from the last round
			w.multilevel(g, k, out)
			var rf refiner
			rf.reset(n, k)
			want := multilevelReference(g, k, rand.New(rand.NewSource(rseed)), &rf)
			if !slices.Equal(out, want) {
				t.Fatalf("round %d n=%d k=%d: worker.multilevel diverged from the reference\n got %v\nwant %v",
					round, n, k, out, want)
			}
		}
	})
}

// diffMultilevel replays multilevel's coarsen / initial-partition /
// uncoarsen chain for one restart seed and, at every level, refines a
// copy of the incoming partition with rf and another with the oracle.
// The two must agree element for element; the chain continues from the
// oracle's result. rf is deliberately shared between calls so state
// left over from another level or seed would show.
func diffMultilevel(t testing.TB, name string, wg *workGraph, k int, seed int64, rf *refiner) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := []*workGraph{wg}
	var maps [][]int
	for len(graphs[len(graphs)-1].vwgt) > max(4*k, 32) {
		next, cmap, shrunk := coarsenReference(graphs[len(graphs)-1], rng)
		if !shrunk {
			break
		}
		graphs = append(graphs, next)
		maps = append(maps, cmap)
	}
	both := func(lvl int, part []int) []int {
		got, want := slices.Clone(part), slices.Clone(part)
		rf.refine(graphs[lvl], got)
		refineReference(graphs[lvl], want, k, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("%s k=%d seed=%d level %d (n=%d): refine diverged from the oracle\n got %v\nwant %v",
				name, k, seed, lvl, len(want), got, want)
		}
		return want
	}
	part := both(len(graphs)-1, initialPartitionReference(graphs[len(graphs)-1], k, rng))
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
// refine lives under: referenceGraphs, k = 2…8, three restart seeds.
func TestRefineMatchesReference(t *testing.T) {
	for _, g := range referenceGraphs() {
		wg := newTestWorker().workGraph(g, g.Switches())
		for k := 2; k <= 8 && k <= len(wg.vwgt); k++ {
			var rf refiner
			rf.reset(len(wg.vwgt), k)
			for _, seed := range []int64{12345, 12345 + 7919, 3} {
				diffMultilevel(t, g.Name, wg, k, seed, &rf)
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
	f.Add(int64(1), uint8(12), uint8(20), uint8(3))
	f.Add(int64(2), uint8(40), uint8(90), uint8(8))
	f.Add(int64(3), uint8(5), uint8(0), uint8(5))
	f.Add(int64(4), uint8(64), uint8(255), uint8(2))
	// Each pass of these three ends in a rebalance cycle that only the
	// n-move cap stops (n = 32, 62, 80; k = 7, 4, 8).
	f.Add(int64(7), uint8(30), uint8(238), uint8(173))
	f.Add(int64(80), uint8(252), uint8(8), uint8(205))
	f.Add(int64(122), uint8(78), uint8(10), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, kk uint8) {
		n := 2 + int(nv)%96
		k := 2 + int(kk)%7
		if k > n {
			k = n
		}
		rng := rand.New(rand.NewSource(seed))
		g, part := randomWorkGraph(rng, n, int(ne), k)
		got, want := slices.Clone(part), slices.Clone(part)
		var rf refiner
		rf.reset(n+rng.Intn(4), k) // scratch may be larger than the level
		rf.refine(g, got)
		refineReference(g, want, k, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: refine diverged from the oracle\nfrom %v\n got %v\nwant %v", n, k, part, got, want)
		}
		rf.refine(g, got) // a second call on the same scratch starts clean
		refineReference(g, want, k, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: second refine on reused scratch diverged", n, k)
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

// TestCutAllocsBounded keeps every restart's storage in the idle
// workers. One Cut of the 190-switch WAN allocated 15 033 objects before
// the refiner, 7 588 with it, 781 once the coarsening's pair maps became
// marker arrays and the restarts stopped seeding a math/rand source
// each, and about 770 once the refiners were reused. With the
// coarsening chain, the permutations, the initial partitions and the
// candidates on worker storage too, a Cut allocated its work graph, its
// Result and, on more than one core, its helper goroutines: 10 objects
// at GOMAXPROCS 1. Now that the calling goroutine's worker holds the
// work graph and the Result's slices share one array, it allocates 2
// objects at GOMAXPROCS 1 (the Result and its array) and 3 at
// GOMAXPROCS 2 (and the helper's closure). The idle list keeps its
// workers across garbage collections, so both counts are exact, -race
// included: a worker refill, about 60 objects, would show in either.
// testing.AllocsPerRun pins GOMAXPROCS to 1, where Cut runs every
// restart inline, so the helpers are counted at GOMAXPROCS 2 with
// runtime.MemStats over 50 Cuts, the total divided by the Cuts. The
// warm-up and the division are for the runtime's own allocations: a
// helper goroutine needs a fresh descriptor (runtime.malg) while the P
// that starts it has no free one, and a fresh process keeps making
// them until the other P's free list, which its helpers exit to, spills
// to the global one, some 64 Cuts in (measured with Go 1.24 on two
// cores); after that, a stray few. A failure logs both Mallocs totals:
// a worker refill shows as 4 or more objects per Cut over the runs, a
// runtime change as a different warm-up or a few strays.
// refine itself, on an idle worker's scratch, allocates nothing at
// all.
func TestCutAllocsBounded(t *testing.T) {
	g := wan190()
	cut := func() {
		if _, err := Cut(g, 3, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	const serial, parallel = 2, 3
	if perCut := testing.AllocsPerRun(5, cut); perCut != serial {
		t.Errorf("Cut(wan-190, 3) at GOMAXPROCS 1 allocates %.2f objects, want %d", perCut, serial)
	}
	prev := runtime.GOMAXPROCS(2)
	for range 128 {
		cut() // warm the idle workers' storage and the runtime's free goroutines
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		cut()
	}
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(prev)
	if perCut := (after.Mallocs - before.Mallocs) / runs; perCut != parallel {
		t.Errorf("Cut(wan-190, 3) at GOMAXPROCS 2 allocates %d objects, want %d (Mallocs %d before %d Cuts, %d after)",
			perCut, parallel, before.Mallocs, runs, after.Mallocs)
	}

	wg := newTestWorker().workGraph(g, g.Switches())
	start := initialPartitionReference(wg, 3, rand.New(rand.NewSource(1)))
	part := make([]int, len(start))
	w := getWorker()
	defer putWorker(w)
	w.rf.reset(len(start), 3)
	perRefine := testing.AllocsPerRun(5, func() {
		copy(part, start)
		w.rf.refine(wg, part)
	})
	if perRefine != 0 {
		t.Errorf("refine on an idle worker's scratch allocates %.0f objects, want 0", perRefine)
	}
}
