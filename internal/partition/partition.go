// Package partition implements the topology-cutting step of multi-switch
// SDT (§IV-C of the paper): splitting a logical topology's switch graph
// into k sub-topologies, one per physical switch.
//
// The paper's requirements: (1) minimise the number of inter-switch
// links (edges cut), and (2) balance the number of links/ports assigned
// to each physical switch. The authors use METIS; this package provides
// a from-scratch multilevel k-way partitioner in the METIS style:
// heavy-edge-matching coarsening, greedy region-growing initial
// partitioning, and Fiduccia–Mattheyses-style boundary refinement during
// uncoarsening. A pure min-cut mode (no balance constraint) is provided
// for the Fig. 8 ablation.
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/topology"
)

// Objective selects the optimisation target.
type Objective int

const (
	// Balanced minimises cut subject to a port-balance constraint —
	// the paper's production objective (α·Cut + β·balance, §IV-C).
	Balanced Objective = iota
	// MinCut ignores balance entirely (the "initial idea" the paper
	// shows misbehaving in Fig. 8).
	MinCut
)

// Options tunes the partitioner. The zero value is usable: Balanced
// objective, 10% imbalance tolerance, deterministic seed.
type Options struct {
	Objective Objective
	// Epsilon is the allowed relative port-weight imbalance for the
	// Balanced objective (0 means the 0.10 default).
	Epsilon float64
	// Seed makes tie-breaking deterministic; 0 means a fixed default.
	Seed int64
	// Refinement passes per uncoarsening level (0 means 4).
	Passes int
}

// Result describes a k-way partition of the switch graph.
type Result struct {
	K int
	// Assign maps every vertex ID (switches and hosts) to a part in
	// [0, K). Hosts inherit the part of their attached switch.
	Assign []int
	// CutEdges is the number of switch-switch edges whose endpoints
	// land in different parts — the inter-switch links the deployment
	// must reserve (Eq. 2).
	CutEdges int
	// PartPorts[p] is the total port weight (switch degree, including
	// host-facing ports) assigned to part p.
	PartPorts []int
	// PartSwitches[p] is the number of logical switches in part p.
	PartSwitches []int
	// Imbalance is max(PartPorts)/mean(PartPorts) - 1.
	Imbalance float64
}

// workGraph is the coarsenable switch-only weighted graph.
type workGraph struct {
	vwgt []int   // vertex weights (ports)
	xadj [][]nbr // adjacency with weights (merged parallel edges)
}

type nbr struct {
	v int
	w int
}

// sortAdj orders every adjacency list by neighbour ID so results are
// independent of map iteration order.
func (g *workGraph) sortAdj() {
	for i := range g.xadj {
		sort.Slice(g.xadj[i], func(a, b int) bool { return g.xadj[i][a].v < g.xadj[i][b].v })
	}
}

// Cut partitions the switch graph of g into k parts. It mirrors the
// paper's Cut(G(E,V), params...) function: input logical topology plus
// switch count, output a partitioning that satisfies the objective.
//
// Cut is deterministic: all randomness flows from Options.Seed (0 maps
// to a fixed default), adjacency lists are sorted so the result is
// independent of map iteration order, and no goroutines are spawned —
// the same (g, k, opt) always yields a byte-identical Result,
// regardless of GOMAXPROCS or rerun count. Downstream consumers rely
// on this: projection plans and live reconfiguration derive their
// sub-switch placement from the Result, so a nondeterministic Cut
// would break the golden-pinned byte-identity of every SDT-mode run.
func Cut(g *topology.Graph, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k = %d must be >= 1", k)
	}
	switches := g.Switches()
	if len(switches) == 0 {
		return nil, fmt.Errorf("partition: topology %q has no switches", g.Name)
	}
	if k > len(switches) {
		return nil, fmt.Errorf("partition: k = %d exceeds switch count %d", k, len(switches))
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.10
	}
	if opt.Passes <= 0 {
		opt.Passes = 4
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 12345
	}

	// Dense index over switches.
	idx := make(map[int]int, len(switches))
	for i, s := range switches {
		idx[s] = i
	}
	wg := &workGraph{
		vwgt: make([]int, len(switches)),
		xadj: make([][]nbr, len(switches)),
	}
	for i, s := range switches {
		wg.vwgt[i] = g.Degree(s) // all ports, incl. host-facing (paper balances ports)
	}
	type pairKey struct{ a, b int }
	merged := map[pairKey]int{}
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		a, b := idx[e.A], idx[e.B]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		merged[pairKey{a, b}]++
	}
	for pk, w := range merged {
		wg.xadj[pk.a] = append(wg.xadj[pk.a], nbr{pk.b, w})
		wg.xadj[pk.b] = append(wg.xadj[pk.b], nbr{pk.a, w})
	}
	wg.sortAdj() // map iteration order must not leak into results

	var part []int
	if k == 1 {
		part = make([]int, len(switches))
	} else {
		// Multistart: the multilevel heuristic is cheap, so run it
		// several times with derived seeds and keep the best-scoring
		// partition (α·cut + β·imbalance, the paper's objective).
		const restarts = 8
		bestScore := -1.0
		for r := 0; r < restarts; r++ {
			cand := multilevel(wg, k, opt, rand.New(rand.NewSource(seed+int64(r)*7919)))
			s := score(wg, cand, k, opt)
			if bestScore < 0 || s < bestScore {
				bestScore = s
				part = cand
			}
		}
	}

	res := &Result{
		K:            k,
		Assign:       make([]int, len(g.Vertices)),
		PartPorts:    make([]int, k),
		PartSwitches: make([]int, k),
	}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	for i, s := range switches {
		res.Assign[s] = part[i]
		res.PartPorts[part[i]] += wg.vwgt[i]
		res.PartSwitches[part[i]]++
	}
	for _, h := range g.Hosts() {
		if s := g.HostSwitch(h); s >= 0 {
			res.Assign[h] = res.Assign[s]
		}
	}
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		if res.Assign[e.A] != res.Assign[e.B] {
			res.CutEdges++
		}
	}
	total := 0
	maxP := 0
	for _, p := range res.PartPorts {
		total += p
		if p > maxP {
			maxP = p
		}
	}
	mean := float64(total) / float64(k)
	if mean > 0 {
		res.Imbalance = float64(maxP)/mean - 1
	}
	return res, nil
}

// multilevel runs coarsen / initial-partition / refine.
func multilevel(wg *workGraph, k int, opt Options, rng *rand.Rand) []int {
	coarseLimit := 4 * k
	if coarseLimit < 32 {
		coarseLimit = 32
	}

	// Coarsening chain.
	graphs := []*workGraph{wg}
	maps := [][]int{} // maps[i]: vertex of graphs[i] -> vertex of graphs[i+1]
	for len(graphs[len(graphs)-1].vwgt) > coarseLimit {
		cur := graphs[len(graphs)-1]
		next, cmap, shrunk := coarsen(cur, rng)
		if !shrunk {
			break
		}
		graphs = append(graphs, next)
		maps = append(maps, cmap)
	}

	coarsest := graphs[len(graphs)-1]
	part := initialPartition(coarsest, k, opt, rng)
	refine(coarsest, part, k, opt, rng)

	// Project back up, refining at each level.
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := graphs[lvl]
		cmap := maps[lvl]
		finePart := make([]int, len(fine.vwgt))
		for v := range finePart {
			finePart[v] = part[cmap[v]]
		}
		part = finePart
		refine(fine, part, k, opt, rng)
	}
	return part
}

// coarsen contracts a heavy-edge matching. Returns the coarse graph, the
// fine→coarse map, and whether the graph actually shrank.
func coarsen(g *workGraph, rng *rand.Rand) (*workGraph, []int, bool) {
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
	type pairKey struct{ a, b int }
	acc := map[pairKey]int{}
	for v := 0; v < n; v++ {
		coarse.vwgt[cmap[v]] += g.vwgt[v]
		for _, nb := range g.xadj[v] {
			ca, cb := cmap[v], cmap[nb.v]
			if ca == cb {
				continue
			}
			if ca > cb {
				continue // count each direction once (v<nb side handles it)
			}
			acc[pairKey{ca, cb}] += nb.w
		}
	}
	for pk, w := range acc {
		// Exactly one direction of each fine edge passes the ca<cb
		// filter, so w is the true merged weight.
		coarse.xadj[pk.a] = append(coarse.xadj[pk.a], nbr{pk.b, w})
		coarse.xadj[pk.b] = append(coarse.xadj[pk.b], nbr{pk.a, w})
	}
	coarse.sortAdj()
	return coarse, cmap, true
}

// initialPartition grows k regions greedily from spread-out seeds,
// balancing vertex weight.
func initialPartition(g *workGraph, k int, opt Options, rng *rand.Rand) []int {
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
	dist := bfsDist(g, first)
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
		d2 := bfsDist(g, far)
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
		sort.SliceStable(frontier, func(i, j int) bool {
			return weight[frontier[i].p] < weight[frontier[j].p]
		})
		var rest []frontierItem
		for _, f := range frontier {
			if part[f.v] != -1 {
				continue
			}
			if float64(weight[f.p]) > target*1.5 && opt.Objective == Balanced {
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

func bfsDist(g *workGraph, src int) []int {
	n := len(g.vwgt)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = n + 1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.xadj[v] {
			if dist[nb.v] > dist[v]+1 {
				dist[nb.v] = dist[v] + 1
				queue = append(queue, nb.v)
			}
		}
	}
	return dist
}

// score evaluates a partition under the paper's composite objective:
// cut weight plus a balance penalty (zero for MinCut).
func score(g *workGraph, part []int, k int, opt Options) float64 {
	cut := 0
	total := 0
	weight := make([]int, k)
	for v := range g.vwgt {
		weight[part[v]] += g.vwgt[v]
		total += g.vwgt[v]
		for _, nb := range g.xadj[v] {
			if nb.v > v && part[nb.v] != part[v] {
				cut += nb.w
			}
		}
	}
	if opt.Objective == MinCut {
		return float64(cut)
	}
	maxW := 0
	for _, w := range weight {
		if w > maxW {
			maxW = w
		}
	}
	mean := float64(total) / float64(k)
	imb := float64(maxW)/mean - 1
	// β chosen so a 10% imbalance costs about one cut edge on small
	// graphs and scales with graph size on larger ones.
	return float64(cut) + imb*float64(total)*0.25
}

// connTo computes v's edge weight toward each part, returned as a dense
// slice for deterministic iteration.
func connTo(g *workGraph, part []int, v, k int, buf []int) []int {
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

// refine runs FM-style passes: move boundary vertices to the neighbour
// part with the best gain, respecting balance for the Balanced
// objective, then explicitly rebalances overweight parts.
func refine(g *workGraph, part []int, k int, opt Options, rng *rand.Rand) {
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
				conn = connTo(g, part, v, k, conn)
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
			if rebalance(g, part, k, weight, partCount, maxAllowed, &conn) > 0 {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// degSum returns the total incident edge weight of v.
func degSum(g *workGraph, v int) int {
	s := 0
	for _, nb := range g.xadj[v] {
		s += nb.w
	}
	return s
}

// rebalance drains overweight parts by moving their cheapest boundary
// vertices into the lightest adjacent part, even at a cut cost.
func rebalance(g *workGraph, part []int, k int, weight, partCount []int, maxAllowed int, connBuf *[]int) int {
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
			conn := connTo(g, part, v, k, *connBuf)
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

// CutEdgeIDs returns the IDs of switch-switch edges cut by the result —
// the logical links that must become inter-switch links.
func (r *Result) CutEdgeIDs(g *topology.Graph) []int {
	var out []int
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		if r.Assign[e.A] != r.Assign[e.B] {
			out = append(out, eid)
		}
	}
	return out
}
