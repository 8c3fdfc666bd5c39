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
// uncoarsening.
package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/topology"
)

// Options has no fields. Cut has one objective — the paper's
// α·Cut + β·balance (§IV-C): fewest cut links, with every part's port
// weight within epsilon of the mean — and a fixed seed, so there is
// nothing to tune. The type remains because Cut and the projection
// entry points take it.
type Options struct{}

const (
	// epsilon is the allowed relative port-weight imbalance of a part.
	epsilon = 0.10
	// passes is the number of refinement passes per uncoarsening level.
	passes = 4
	// cutSeed is the seed every Cut's restart seeds derive from.
	cutSeed = 12345
)

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

// sortAdj orders every adjacency list by neighbour ID: the order
// coarsening's heavy-edge matching breaks ties in, whatever order the
// rows were built in.
func (g *workGraph) sortAdj() {
	for i := range g.xadj {
		slices.SortFunc(g.xadj[i], func(a, b nbr) int { return cmp.Compare(a.v, b.v) })
	}
}

// Cut partitions the switch graph of g into k parts. It mirrors the
// paper's Cut(G(E,V), params...) function: input logical topology plus
// switch count, output a partitioning that satisfies the objective.
//
// Cut is deterministic: all randomness flows from cutSeed, adjacency
// lists ascend by neighbour, which fixes the order coarsening breaks
// ties in, and the restarts, which run on up to min(GOMAXPROCS, 8)
// workers, each write their own slot and are reduced serially in
// restart order — the same (g, k) always yields a byte-identical
// Result, regardless of GOMAXPROCS, scheduling or rerun count.
// Downstream consumers rely on this: projection plans and live
// reconfiguration derive their sub-switch placement from the Result, so
// a nondeterministic Cut would break the golden-pinned byte-identity of
// every SDT-mode run.
func Cut(g *topology.Graph, k int, _ Options) (*Result, error) {
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

	w := getWorker()
	defer putWorker(w)
	wg := w.workGraph(g, switches)
	part := w.multistart(wg, k)

	// The Result owns its storage (a projection Plan keeps it), so it
	// is allocated per Cut, in one piece.
	nv := len(g.Vertices)
	buf := make([]int, nv+2*k)
	res := &Result{
		K:            k,
		Assign:       buf[:nv:nv],
		PartPorts:    buf[nv : nv+k : nv+k],
		PartSwitches: buf[nv+k:],
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
	for _, e := range g.Edges {
		if g.IsSwitchSwitch(e) && res.Assign[e.A] != res.Assign[e.B] {
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

// restarts is the number of multilevel runs Cut keeps the best of.
const restarts = 8

// multistart runs the multilevel heuristic once per restart seed and
// returns the best-scoring partition (α·cut + β·imbalance, the paper's
// objective); with k = 1 there is only the all-zero one. The restarts
// are independent, so they run on min(GOMAXPROCS, restarts) workers, w
// (the calling goroutine's) being one of them, each claiming the next
// restart index. Every restart writes its own candidate and score slot,
// and the reduction runs serially in restart order with a strict <, ties
// going to the lowest restart, so the winner is the serial loop's
// whatever the worker count or schedule. The returned slice is the
// winner's slot of w's candidate buffer: it is valid until w goes back
// to the idle list.
func (w *worker) multistart(wg *workGraph, k int) []int {
	n := len(wg.vwgt)
	f := &w.fan
	f.cands = resize(f.cands, restarts*n)
	if k == 1 {
		clear(f.cands[:n])
		return f.cands[:n]
	}
	f.wg, f.k = wg, k
	f.next.Store(0)
	for range min(runtime.GOMAXPROCS(0), restarts) - 1 {
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			if r := f.claim(); r >= 0 { // else the other workers took every restart
				h := getWorker()
				f.run(h, r)
				putWorker(h)
			}
		}()
	}
	if r := f.claim(); r >= 0 {
		f.run(w, r)
	}
	f.done.Wait()
	f.wg = nil // pin no graph while idle
	best := 0
	for r := 1; r < restarts; r++ {
		if f.scores[r] < f.scores[best] {
			best = r
		}
	}
	return f.cands[best*n : (best+1)*n]
}

// fanout is one Cut's restarts as its workers share them: the inputs,
// the next restart to claim, the candidates — one flat restarts × n
// buffer, restart r's partition in cands[r·n : (r+1)·n] — and one score
// per restart. It lives in the calling goroutine's worker, so the
// fan-out itself allocates only its helper goroutines.
type fanout struct {
	wg     *workGraph
	k      int
	cands  []int
	scores [restarts]float64
	next   atomic.Int32
	done   sync.WaitGroup
}

// claim returns the next unclaimed restart, or -1 when none is left.
func (f *fanout) claim() int {
	if r := int(f.next.Add(1)) - 1; r < restarts {
		return r
	}
	return -1
}

// run runs restart r and then every restart it can claim on w's
// scratch.
func (f *fanout) run(w *worker, r int) {
	n := len(f.wg.vwgt)
	w.rf.reset(n, f.k)
	for ; r >= 0; r = f.claim() {
		w.src.Seed(restartSeed(r))
		cand := f.cands[r*n : (r+1)*n]
		w.multilevel(f.wg, f.k, cand)
		w.weight = resize(w.weight, f.k)
		f.scores[r] = score(f.wg, cand, f.k, w.weight)
	}
	w.rf.g, w.rf.part = nil, nil // pin no graph while idle
}

// worker is one restart worker's storage: everything a restart works
// in, sized by the largest graph it has seen and reused by every later
// restart, level and Cut, in the manner of METIS's per-call workspace.
// Cut's calling goroutine and each of its helpers take one from the
// idle list and put it back; the calling goroutine's also builds the
// work graph, which its helpers read. So a Cut allocates only its
// Result and its helper goroutines. Nothing in an idle worker points at
// a caller's graph: the work graph and the coarse levels are its own,
// and fanout.run and multistart drop the rest.
type worker struct {
	rf  refiner
	src stream
	rng *rand.Rand
	fan fanout // the Cut whose calling goroutine holds this worker

	// The work graph, the array its rows are laid out in and
	// workGraph's vertex-to-switch map, built by the Cut whose calling
	// goroutine holds this worker.
	wg     workGraph
	wgFlat []nbr
	idx    []int
	// The coarsening chain below the work graph: levels[i] is level
	// i+1, built into the same storage by every restart. perm and match
	// are coarsen's, rows is theirs and workGraph's row builder.
	levels      []*level
	perm, match []int
	rows        adjRows
	// part holds the coarse levels' partitions, alternating by level
	// parity so a level's and the next coarser one's never share; level
	// 0's is the restart's candidate slot.
	part [2][]int

	// initialPartition's seeds, distances and BFS queue, and its
	// frontier, double-buffered with rest; weight is also score's.
	seeds, dist, d2, queue, weight []int
	frontier, rest                 []frontierItem
}

// level is one coarsening level a worker owns: the coarse graph, the
// backing array its rows are laid out in, and the map from the finer
// level's vertices to its own.
type level struct {
	g    workGraph
	flat []nbr
	cmap []int
}

// idle holds the workers no Cut holds. It never shrinks, so it holds as
// many as the most that concurrent Cuts ever held at once, each sized
// by the largest graph it has seen. Unlike a sync.Pool's, its workers
// survive a garbage collection, so a Cut's allocations do not depend
// on when the last one ran.
var idle struct {
	sync.Mutex
	ws []*worker
}

// getWorker takes an idle worker, or makes one when none is idle.
func getWorker() *worker {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.ws)
	if n == 0 {
		w := &worker{}
		w.rng = rand.New(&w.src)
		return w
	}
	w := idle.ws[n-1]
	idle.ws = idle.ws[:n-1]
	return w
}

// putWorker makes w idle.
func putWorker(w *worker) {
	idle.Lock()
	defer idle.Unlock()
	idle.ws = append(idle.ws, w)
}

// restartSeed is the seed of a Cut's restart r.
func restartSeed(r int) int64 { return cutSeed + int64(r)*7919 }

// recordLen is how many Int63 draws of each restart stream are
// recorded. A restart draws about two per switch (one Perm per
// coarsening level, each level half the last), so this covers graphs
// up to ~1000 switches; a longer run falls back to a fresh source (see
// stream.Int63).
const recordLen = 2048

// The Int63 streams of the restart seeds, recorded on first use and
// read-only afterwards. Every Cut uses the same restart seeds, so
// seeding math/rand's 607-word source for each of a Cut's restarts
// becomes one recording per process, and the memory is bounded:
// restarts × recordLen values. The values are the seeded source's own,
// so no partition changes.
var (
	recordOnce sync.Once
	recorded   [restarts][]int64
)

// recording returns the recorded head of rand.NewSource(seed)'s Int63
// stream, or nil when seed is not a restart seed.
func recording(seed int64) []int64 {
	for r := 0; r < restarts; r++ {
		if seed != restartSeed(r) {
			continue
		}
		recordOnce.Do(func() {
			buf := make([]int64, restarts*recordLen)
			for i := range recorded {
				src := rand.NewSource(restartSeed(i))
				rec := buf[i*recordLen : (i+1)*recordLen : (i+1)*recordLen]
				for j := range rec {
					rec[j] = src.Int63()
				}
				recorded[i] = rec
			}
		})
		return recorded[r]
	}
	return nil
}

// stream is the rand.Source of one restart. It yields exactly
// rand.NewSource(seed)'s Int63 sequence: the recorded head first, then,
// past its end (or for a seed with no recording), a fresh source
// advanced past the values already replayed. Only Int63 is replayed, so
// the partitioner must draw through Int63-based methods (Intn, Perm),
// never Uint64.
type stream struct {
	seed int64
	rec  []int64
	pos  int
	tail rand.Source // nil until rec runs out
}

// Seed restarts the stream at the head of seed's sequence.
func (s *stream) Seed(seed int64) { *s = stream{seed: seed, rec: recording(seed)} }

// Int63 returns the next value of the sequence.
func (s *stream) Int63() int64 {
	if s.pos < len(s.rec) {
		s.pos++
		return s.rec[s.pos-1]
	}
	if s.tail == nil {
		s.tail = rand.NewSource(s.seed)
		for range s.pos {
			s.tail.Int63()
		}
	}
	return s.tail.Int63()
}

// workGraph builds the weighted switch-only graph Cut partitions into
// w's storage: one vertex per switch in ID order, weighted by its port
// count, with parallel links merged into one weighted edge. The graph
// is valid until w builds another. Each row comes out sorted: switches
// ascend, so idx is monotone over a CSR row's ascending neighbours, and
// a parallel link merges into its first occurrence.
func (w *worker) workGraph(g *topology.Graph, switches []int) *workGraph {
	n := len(switches)
	idx := resize(w.idx, len(g.Vertices)) // vertex ID -> switch index, -1 for hosts
	w.idx = idx
	for i := range idx {
		idx[i] = -1
	}
	wg := &w.wg
	wg.vwgt = resize(wg.vwgt, n)
	wg.xadj = resize(wg.xadj, n)
	half := 0
	for i, s := range switches {
		idx[s] = i
		wg.vwgt[i] = g.Degree(s) // all ports, incl. host-facing (paper balances ports)
		half += wg.vwgt[i]
	}
	rows := &w.rows
	rows.reset(w.wgFlat, n, half)
	csr := g.CSR()
	for i, s := range switches {
		for _, o := range csr.Nbr[csr.Start[s]:csr.Start[s+1]] {
			if j := idx[o]; j >= 0 && j != i {
				rows.add(j, 1)
			}
		}
		wg.xadj[i] = rows.end()
	}
	w.wgFlat = rows.flat
	return wg
}

// adjRows lays adjacency rows out back to back in one backing array,
// merging parallel edges with a dense marker instead of a map: at[j] is
// the index of neighbour j's entry if j is already in the row being
// built (any index of an earlier row is below start).
type adjRows struct {
	flat  []nbr
	at    []int
	start int
}

// reset starts an empty set of rows over n vertices, laid out in
// flat's storage grown to hold halfEdges entries, so no row built within
// that bound moves an earlier one.
func (b *adjRows) reset(flat []nbr, n, halfEdges int) {
	b.flat = slices.Grow(flat[:0], halfEdges)
	b.at = resize(b.at, n)
	for i := range b.at {
		b.at[i] = -1
	}
	b.start = 0
}

// add adds weight w toward neighbour j to the current row.
func (b *adjRows) add(j, w int) {
	if b.at[j] >= b.start {
		b.flat[b.at[j]].w += w
		return
	}
	b.at[j] = len(b.flat)
	b.flat = append(b.flat, nbr{j, w})
}

// end closes the current row and returns it (nil when empty, as a
// vertex with no neighbours has always had).
func (b *adjRows) end() []nbr {
	lo, hi := b.start, len(b.flat)
	b.start = hi
	if lo == hi {
		return nil
	}
	return b.flat[lo:hi:hi]
}

// multilevel runs coarsen / initial-partition / refine on w's scratch,
// drawing from w.rng, and writes the partition of wg into out.
func (w *worker) multilevel(wg *workGraph, k int, out []int) {
	coarseLimit := 4 * k
	if coarseLimit < 32 {
		coarseLimit = 32
	}

	// Coarsening chain: wg, then levels[0 : depth].
	g, depth := wg, 0
	for len(g.vwgt) > coarseLimit {
		if depth == len(w.levels) {
			w.levels = append(w.levels, new(level))
		}
		if !w.coarsen(g, w.levels[depth]) {
			break
		}
		g = &w.levels[depth].g
		depth++
	}

	part := w.levelPart(depth, len(g.vwgt), out)
	w.initialPartition(g, k, part)
	w.rf.refine(g, part)

	// Project back up, refining at each level.
	for lvl := depth - 1; lvl >= 0; lvl-- {
		fine := wg
		if lvl > 0 {
			fine = &w.levels[lvl-1].g
		}
		cmap := w.levels[lvl].cmap
		finePart := w.levelPart(lvl, len(fine.vwgt), out)
		for v := range finePart {
			finePart[v] = part[cmap[v]]
		}
		part = finePart
		w.rf.refine(fine, part)
	}
}

// levelPart returns the n-long partition buffer of chain level lvl:
// out for the work graph, else the buffer of lvl's parity.
func (w *worker) levelPart(lvl, n int, out []int) []int {
	if lvl == 0 {
		return out
	}
	w.part[lvl&1] = resize(w.part[lvl&1], n)
	return w.part[lvl&1]
}

// perm fills p with a random permutation of [0, len(p)), drawing from
// rng exactly as rng.Perm(len(p)) does, so the same stream yields the
// same permutation without a fresh slice.
func perm(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// coarsen contracts a heavy-edge matching of g into c: the coarse
// graph and the fine→coarse map. It reports whether the graph actually
// shrank; when it did not, c is left half-built and unused.
func (w *worker) coarsen(g *workGraph, c *level) bool {
	n := len(g.vwgt)
	w.perm = resize(w.perm, n)
	perm(w.rng, w.perm)
	match := resize(w.match, n)
	w.match = match
	for i := range match {
		match[i] = -1
	}
	for _, v := range w.perm {
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
	cmap := resize(c.cmap, n)
	c.cmap = cmap
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
		return false
	}
	coarse := &c.g
	coarse.vwgt = resize(coarse.vwgt, nc)
	coarse.xadj = resize(coarse.xadj, nc)
	clear(coarse.vwgt)
	half := 0
	for v := 0; v < n; v++ {
		coarse.vwgt[cmap[v]] += g.vwgt[v]
		half += len(g.xadj[v])
	}
	// Each coarse row is its members' fine rows mapped through cmap,
	// with the edges inside the pair dropped and parallel ones merged.
	rows := &w.rows
	rows.reset(c.flat, nc, half)
	for v := 0; v < n; v++ {
		if match[v] < v {
			continue // not a representative
		}
		cv := cmap[v]
		for _, u := range [2]int{v, match[v]} {
			for _, nb := range g.xadj[u] {
				if d := cmap[nb.v]; d != cv {
					rows.add(d, nb.w)
				}
			}
			if match[v] == v {
				break
			}
		}
		coarse.xadj[cv] = rows.end()
	}
	c.flat = rows.flat
	coarse.sortAdj()
	return true
}

// frontierItem is a vertex a part may claim next in initialPartition.
type frontierItem struct{ v, p int }

// initialPartition grows k regions of g greedily from spread-out seeds,
// balancing vertex weight, and writes the partition into part.
func (w *worker) initialPartition(g *workGraph, k int, part []int) {
	n := len(g.vwgt)
	for i := range part {
		part[i] = -1
	}
	total := 0
	for _, wt := range g.vwgt {
		total += wt
	}
	target := float64(total) / float64(k)

	// Seeds: BFS-farthest spreading.
	w.queue = resize(w.queue, n)
	dist := resize(w.dist, n)
	d2 := resize(w.d2, n)
	w.dist, w.d2 = dist, d2
	seeds := resize(w.seeds, k)[:0]
	first := w.rng.Intn(n)
	seeds = append(seeds, first)
	bfsDist(g, first, dist, w.queue)
	for len(seeds) < k {
		far, farD := -1, -1
		for v := 0; v < n; v++ {
			if dist[v] > farD {
				far, farD = v, dist[v]
			}
		}
		if far < 0 {
			far = w.rng.Intn(n)
		}
		seeds = append(seeds, far)
		bfsDist(g, far, d2, w.queue)
		for v := range dist {
			if d2[v] < dist[v] {
				dist[v] = d2[v]
			}
		}
	}
	w.seeds = seeds

	weight := resize(w.weight, k)
	w.weight = weight
	clear(weight)
	frontier, rest := w.frontier[:0], w.rest[:0]
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
		rest = rest[:0]
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
		frontier, rest = rest, frontier
		if !progress {
			break
		}
	}
	w.frontier, w.rest = frontier, rest
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
}

// bfsDist fills dist with every vertex's hop distance from src (n+1
// when unreachable). queue holds n vertices: BFS enqueues a vertex only
// when it first reaches it, so n is enough.
func bfsDist(g *workGraph, src int, dist, queue []int) {
	n := len(g.vwgt)
	for i := range dist {
		dist[i] = n + 1
	}
	dist[src] = 0
	queue[0] = src
	for head, tail := 0, 1; head < tail; head++ {
		v := queue[head]
		for _, nb := range g.xadj[v] {
			if dist[nb.v] > dist[v]+1 {
				dist[nb.v] = dist[v] + 1
				queue[tail] = nb.v
				tail++
			}
		}
	}
}

// score evaluates a partition under the paper's composite objective:
// cut weight plus a balance penalty. weight is k-long scratch.
func score(g *workGraph, part []int, k int, weight []int) float64 {
	cut := 0
	total := 0
	clear(weight)
	for v := range g.vwgt {
		weight[part[v]] += g.vwgt[v]
		total += g.vwgt[v]
		for _, nb := range g.xadj[v] {
			if nb.v > v && part[nb.v] != part[v] {
				cut += nb.w
			}
		}
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
	// graphs and scales with graph size on larger ones. The explicit
	// float64 rounds the product, so no architecture fuses it into the
	// sum.
	return float64(cut) + float64(imb*float64(total)*0.25)
}

// move records one vertex relocation of an FM pass, for roll-back.
type move struct {
	v, from, to int
}

// refiner holds the state refine and rebalance share and the scratch
// they work in. reset sizes it for a Cut's finest graph, reusing the
// storage it already has; every restart a worker runs and every
// uncoarsening level then only re-slices and re-fills it.
//
// conn is what makes a move cost O(deg v) instead of a rescan of every
// candidate's adjacency: conn[v*k+p] is v's edge weight toward part p,
// kept current by apply on every move, roll-back and rebalance move.
//
// The gain buckets make choosing a move cost a walk down the gain
// levels instead of a scan of every vertex and part. Candidate (v, p) —
// move v to part p — has index v*k+p, so ascending index order is the
// scan's tie-break order: lowest v, then lowest p. bits holds one
// bitset over candidate indices per gain level (level = gain + span,
// span being the level's largest weighted degree, which bounds every
// gain); at[i] is candidate i's level, or -1 while it is not one;
// count[l] is the number of candidates at level l, and no level above
// top holds any. They are filled at the start of a pass and kept
// current in O(deg v · k) per move; roll-back and rebalance leave them
// stale, as the next pass refills them.
type refiner struct {
	k         int
	g         *workGraph
	part      []int
	conn      []int
	weight    []int // vertex weight per part
	partCount []int // vertices per part
	locked    []bool
	seq       []move

	span, words int
	bits        []uint64
	count       []int
	at          []int32
	top         int

	ckpt []int // rebalance's cycle checkpoint: a copy of part
}

// reset sizes the refiner for graphs of up to n vertices cut k ways,
// keeping whatever storage is already large enough.
func (r *refiner) reset(n, k int) {
	r.k = k
	r.conn = resize(r.conn, n*k)
	r.weight = resize(r.weight, k)
	r.partCount = resize(r.partCount, k)
	r.locked = resize(r.locked, n)
	r.seq = resize(r.seq, n)[:0]
	r.at = resize(r.at, n*k)
	r.ckpt = resize(r.ckpt, n)
}

// resize returns s with length n, reallocated only when its capacity
// is short; callers refill the contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load points the refiner at one level's graph and partition and fills
// the tables from scratch: O(n·k + edges).
func (r *refiner) load(g *workGraph, part []int) {
	n, k := len(g.vwgt), r.k
	r.g, r.part = g, part
	r.conn = r.conn[:n*k]
	r.locked = r.locked[:n]
	r.at = r.at[:n*k]
	clear(r.conn)
	clear(r.weight)
	clear(r.partCount)
	r.span = 0
	for v := 0; v < n; v++ {
		r.weight[part[v]] += g.vwgt[v]
		r.partCount[part[v]]++
		row := r.conn[v*k : v*k+k]
		deg := 0
		for _, nb := range g.xadj[v] {
			row[part[nb.v]] += nb.w
			deg += nb.w
		}
		r.span = max(r.span, deg)
	}
	r.words = (n*k + 63) / 64
	levels := 2*r.span + 1
	r.bits = resize(r.bits, levels*r.words)
	r.count = resize(r.count, levels)
}

// apply moves v to part `to` and updates conn, weight and partCount in
// O(deg v).
func (r *refiner) apply(v, to int) {
	k, from := r.k, r.part[v]
	for _, nb := range r.g.xadj[v] {
		r.conn[nb.v*k+from] -= nb.w
		r.conn[nb.v*k+to] += nb.w
	}
	r.weight[from] -= r.g.vwgt[v]
	r.weight[to] += r.g.vwgt[v]
	r.partCount[from]--
	r.partCount[to]++
	r.part[v] = to
}

// rebucket files each of v's candidates at the level its gain now
// gives.
func (r *refiner) rebucket(v int) {
	for p := 0; p < r.k; p++ {
		r.refile(v, p)
	}
}

// refile files candidate (v, p) at level conn[p] − conn[home] + span,
// or takes it out when it is not a candidate: v is locked, p is its
// home, or v has neighbours and does not touch p.
func (r *refiner) refile(v, p int) {
	i, home := v*r.k+p, r.part[v]
	l := int32(-1)
	if c := r.conn[i]; !r.locked[v] && p != home && (c != 0 || len(r.g.xadj[v]) == 0) {
		l = int32(c - r.conn[v*r.k+home] + r.span)
	}
	old := r.at[i]
	if l == old {
		return
	}
	if old >= 0 {
		r.bits[int(old)*r.words+i>>6] &^= 1 << (i & 63)
		r.count[old]--
	}
	if l >= 0 {
		r.bits[int(l)*r.words+i>>6] |= 1 << (i & 63)
		r.count[l]++
		r.top = max(r.top, int(l))
	}
	r.at[i] = l
}

// fillBuckets empties the buckets and files every candidate.
func (r *refiner) fillBuckets() {
	clear(r.bits)
	clear(r.count)
	for i := range r.at {
		r.at[i] = -1
	}
	r.top = -1
	for v := range r.g.vwgt {
		r.rebucket(v)
	}
}

// pick returns the best feasible move and its gain, or v = -1 when no
// candidate is feasible: the highest level holding one, and in it the
// lowest candidate index. A candidate is feasible when the destination
// stays within maxAllowed and the home part keeps a vertex.
func (r *refiner) pick(maxAllowed int) (v, p, gain int) {
	for r.top >= 0 && r.count[r.top] == 0 {
		r.top--
	}
	for l := r.top; l >= 0; l-- {
		if r.count[l] == 0 {
			continue
		}
		for w, word := range r.bits[l*r.words : (l+1)*r.words] {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				v, p := i/r.k, i%r.k
				if r.partCount[r.part[v]] > 1 && r.weight[p]+r.g.vwgt[v] <= maxAllowed {
					return v, p, l - r.span
				}
			}
		}
	}
	return -1, -1, 0
}

// refine runs FM-style passes over part in place: repeatedly apply the
// best feasible move (even at a negative gain), lock the moved vertex,
// then roll back to the prefix with the lowest cut; each pass ends by
// draining overweight parts (rebalance).
//
// The move sequence is part of Cut's byte-identity contract and is
// pinned by the differential oracle in oracle_test.go: the best move is
// the maximum gain conn[p] − conn[home] over unlocked v and p ≠ home,
// ties going to the lowest v, then the lowest p; feasibility (the
// destination stays within maxAllowed, the home part keeps a vertex) is
// evaluated when the move is selected, not when it was first seen.
// A vertex only moves to a part it touches (isolated vertices may go
// anywhere).
func (r *refiner) refine(g *workGraph, part []int) {
	r.load(g, part)
	n, k := len(g.vwgt), r.k

	// The move limit must leave room for at least one vertex move above
	// the mean, or a perfectly balanced partition could never be refined
	// (every single move temporarily overweights the destination).
	total, maxVwgt := 0, 0
	for _, w := range g.vwgt {
		total += w
		if w > maxVwgt {
			maxVwgt = w
		}
	}
	mean := float64(total) / float64(k)
	maxAllowed := int(mean * (1 + epsilon))
	if min := int(mean) + maxVwgt; maxAllowed < min {
		maxAllowed = min
	}

	for pass := 0; pass < passes; pass++ {
		clear(r.locked)
		r.fillBuckets()
		seq := r.seq[:0]
		cumGain := 0
		bestGainAt, bestGainVal := -1, 0
		for step := 0; step < n; step++ {
			bestV, bestDst, bestGain := r.pick(maxAllowed)
			if bestV < 0 {
				break
			}
			from := part[bestV]
			seq = append(seq, move{bestV, from, bestDst})
			r.apply(bestV, bestDst)
			r.locked[bestV] = true
			r.rebucket(bestV)
			for _, nb := range g.xadj[bestV] {
				switch u := nb.v; {
				case r.locked[u]: // filed nowhere
				case part[u] == from || part[u] == bestDst:
					r.rebucket(u) // conn toward its home changed: every gain did
				default:
					r.refile(u, from)
					r.refile(u, bestDst)
				}
			}
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
			r.apply(seq[i].v, seq[i].from)
		}
		improved := bestGainAt >= 0
		if r.rebalance(maxAllowed) > 0 {
			improved = true
		}
		if !improved {
			break
		}
	}
}

// rebalance drains overweight parts by moving their cheapest vertices
// (least cut damage; lowest v, then lowest p on ties) into a lighter
// part, even at a cut cost, for at most n moves. It returns the number
// of moves made.
//
// Each move is chosen from part alone — weight, partCount and conn all
// derive from it — so once a state repeats, the moves cycle until the
// n-move cap ends them. rebalance finds the cycle with Brent's method
// (BIT 1980): a checkpoint copy of part is taken after 0, 1, 2, 4, …
// moves, and each later state is compared with it, first by a Zobrist
// hash of part kept with one XOR pair per move, then, on a hash match,
// element by element. When the state after m moves equals the
// checkpoint taken after c, the period is m − c; rebalance counts the
// whole periods that fit in the remaining budget as made and runs only
// the remainder, ending in the state, and with the count, that making
// every move would have.
func (r *refiner) rebalance(maxAllowed int) int {
	k, part, weight := r.k, r.part, r.weight
	n := len(part)
	ckpt := r.ckpt[:n]
	var hash, ckHash uint64 // hashes relative to the state on entry
	ckAt, power, seeking := 0, 1, true
	moved := 0
	for iter := 0; iter < n; iter++ {
		// Heaviest over-limit part.
		over := -1
		for p := 0; p < k; p++ {
			if weight[p] > maxAllowed && (over < 0 || weight[p] > weight[over]) {
				over = p
			}
		}
		if over < 0 || r.partCount[over] <= 1 {
			break
		}
		bestV, bestDst, bestCost := -1, -1, 1<<30
		for v := range part {
			if part[v] != over {
				continue
			}
			row := r.conn[v*k : v*k+k]
			for p, c := range row {
				// Only move toward parts currently lighter than the
				// overweight source.
				if p == over || weight[p] >= weight[over] {
					continue
				}
				if cost := row[over] - c; cost < bestCost {
					bestV, bestDst, bestCost = v, p, cost
				}
			}
		}
		if bestV < 0 {
			break
		}
		if moved == 0 {
			copy(ckpt, part)
		}
		hash ^= zobrist(bestV*k+part[bestV]) ^ zobrist(bestV*k+bestDst)
		r.apply(bestV, bestDst)
		moved++
		if !seeking {
			continue
		}
		if hash == ckHash && slices.Equal(part, ckpt) {
			period := moved - ckAt
			skip := (n - 1 - iter) / period * period
			iter += skip
			moved += skip
			seeking = false // fewer than period iterations remain
			continue
		}
		if moved-ckAt == power {
			copy(ckpt, part)
			ckHash, ckAt, power = hash, moved, 2*power
		}
	}
	return moved
}

// zobrist is the hash key of vertex v in part p, for i = v·k + p: the
// SplitMix64 finaliser of i+1, so every key is a fixed, well-mixed
// function of (v, p).
func zobrist(i int) uint64 {
	z := uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
