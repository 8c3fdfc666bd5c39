// Package flowsim is the flow-level fast path of the testbed: instead
// of moving packets, it treats each flow as a fluid transmitting at the
// max-min fair share of the links it crosses (progressive filling), and
// recomputes the allocation only when the set of active flows changes —
// at flow arrivals and completions. A run's cost therefore scales with
// the number of flows (and their path lengths), not with bytes × hops
// the way packet simulation does, which is what lets the
// loadgen-sweep-xl experiment reach 65k-host fat-trees.
//
// Fidelity contract: flows follow the exact routes the packet engine
// forwards with (the walker resolves paths with Routes.Walk, hop by hop
// through the same rules, which FuzzFIBLookup holds equal to the packet
// engine's FIB on every tuple), link capacity is the packet engine's
// effective payload goodput (LinkBps derated by the MTU/(MTU+header) framing
// overhead), concurrent flows between one (src, dst) pair serialise in
// schedule order exactly like the RoCE per-destination queue pair, and
// completion times add the zero-load path latency the packet engine
// charges (NIC, switch pipeline, propagation, cut-through header
// re-serialisation). What the fluid model abstracts away — packet
// granularity, PFC/ECN/DCQCN dynamics, transient queueing — is bounded
// by the differential harness in differential_test.go, which asserts
// per-bucket FCT percentile agreement against the packet engine across
// topologies × patterns × loads; DESIGN.md documents the tolerance
// rationale.
package flowsim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Result summarises one flow-level run.
type Result struct {
	// ACT is the completion time of the last flow (0 for an empty
	// schedule) — the same quantity FlowApp.ACT reports.
	ACT netsim.Time
	// Completed counts finished flows; the fluid model never drops, so
	// this equals the schedule length on success.
	Completed int
	// Recomputes counts rate-allocation events (arrival and completion
	// batches) — the flow-level analogue of the packet engine's event
	// count, reported as RunResult.Events.
	Recomputes int64
	// Pairs counts distinct (src, dst) serialisation queues.
	Pairs int
}

// flowState is one flow's fluid state while active.
type flowState struct {
	path      *pathInfo
	remaining float64 // payload bytes left to transmit
	rate      float64 // current allocation, payload bytes per ps
	slot      int32   // the flow's first slot in the fair-share table
	hops      int32   // len(path.links)
}

// pendEntry is one pair queue's next injection, ready at `ready` ps.
type pendEntry struct {
	ready float64
	fi    int32
}

// Run executes an open-loop flow schedule at flow-level fidelity over
// the given route set. hosts[i] is the vertex of rank i, exactly as in
// netsim.NewFlowApp, and per-flow End/Completed results are written
// back into the flows slice so telemetry.MeasureFCT consumes them
// identically to a packet-level run. routes may be a subset computation
// (routing.DstComputer) covering at least every destination the
// schedule references.
//
// Validation mirrors NewFlowApp — rank range, self-send, duplicate
// (src, dst, tag) — but returns errors instead of panicking, since
// flow-mode schedules are caller-supplied at sizes where a panic would
// be hostile. A cancelled context returns (nil, ctx.Err()) with the
// per-flow results in an unspecified partial state, matching core.Run's
// cancellation contract.
func Run(ctx context.Context, g *topology.Graph, routes *routing.Routes, cfg netsim.Config, hosts []int, flows []netsim.Flow) (*Result, error) {
	e, err := newEngine(g, routes, cfg, hosts, flows)
	if err != nil {
		return nil, err
	}
	return e.result(ctx)
}

// newEngine validates Run's inputs, walks every pair's path over routes
// and returns the engine ready to run.
func newEngine(g *topology.Graph, routes *routing.Routes, cfg netsim.Config, hosts []int, flows []netsim.Flow) (*engine, error) {
	if g == nil {
		return nil, errNilRoutes
	}
	if err := checkRoutes(g, routes); err != nil {
		return nil, err
	}
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	s, err := New(g, cfg, hosts, flows)
	if err != nil {
		return nil, err
	}
	s.Walker(1)(routes, s.dsts)
	return s.engine()
}

var errNilRoutes = errors.New("flowsim: nil topology or routes")

// checkRoutes rejects a route set computed for another graph than g:
// rules name vertex IDs and ports of the graph they were computed for,
// and walked over another graph's edges they resolve plausible wrong
// paths.
func checkRoutes(g *topology.Graph, routes *routing.Routes) error {
	if routes == nil {
		return errNilRoutes
	}
	if routes.Topo != g {
		from := "<nil>"
		if routes.Topo != nil {
			from = routes.Topo.Name
		}
		return fmt.Errorf("flowsim: routes were computed for another graph (%q) than the one being run (%q)", from, g.Name)
	}
	return nil
}

func checkConfig(cfg netsim.Config) error {
	if cfg.LinkBps <= 0 || cfg.MTU <= 0 {
		return fmt.Errorf("flowsim: invalid fabric config (LinkBps=%g MTU=%d)", cfg.LinkBps, cfg.MTU)
	}
	return nil
}

// Sim is a validated flow schedule whose paths are being resolved: New
// groups its flows into (src, dst) host pairs, walkers from Walker write
// each pair's path into the pair's slot, and Run runs the fluid engine
// over them. It is how a caller that builds the routes a block of
// destinations at a time (routing.ForEachBlock) feeds the walk without
// holding a route set; Run over a held set walks it the same way.
type Sim struct {
	g     *topology.Graph
	cfg   netsim.Config
	hosts []int
	flows []netsim.Flow
	// Pair pid's flows are head[pid], nextInPair[head[pid]], ... in
	// injection order. Pairs are numbered in (dst, src) host order, so
	// the pairs toward dsts[i] are pids dstOff[i]:dstOff[i+1].
	head       []int32
	nextInPair []int32 // flow → the next flow of its pair queue, or -1
	dsts       []int   // the distinct destination hosts, ascending
	dstOff     []int32
	paths      []pathInfo // per pair, written by the walkers
	walkers    []*walker
}

// New validates a schedule as Run does, save the route set and the
// fabric configuration, which Sim.Run checks, and groups its flows into
// their (src, dst) serialisation queues.
func New(g *topology.Graph, cfg netsim.Config, hosts []int, flows []netsim.Flow) (*Sim, error) {
	if g == nil {
		return nil, errNilRoutes
	}
	dup, _ := netsim.DuplicateFlow(flows)
	for i := range flows {
		f := &flows[i]
		if f.Src < 0 || f.Src >= len(hosts) || f.Dst < 0 || f.Dst >= len(hosts) {
			return nil, fmt.Errorf("flowsim: flow %d rank out of range (src=%d dst=%d ranks=%d)", i, f.Src, f.Dst, len(hosts))
		}
		if f.Src == f.Dst {
			return nil, fmt.Errorf("flowsim: flow %d sends to itself (rank %d)", i, f.Src)
		}
		if f.Bytes < 0 {
			return nil, fmt.Errorf("flowsim: flow %d has negative size %d", i, f.Bytes)
		}
		if i == dup {
			return nil, fmt.Errorf("flowsim: duplicate flow (src=%d dst=%d tag=%d)", f.Src, f.Dst, f.Tag)
		}
		f.End, f.Completed = 0, false
	}

	// Group the flows into their (src, dst) serialisation queues:
	// sorted by host pair and then in injection order, each pair's
	// flows are one run, which nextInPair chains.
	dstOf := func(x int32) int { return hosts[flows[x].Dst] }
	samePair := func(x, y int32) bool {
		return dstOf(x) == dstOf(y) && hosts[flows[x].Src] == hosts[flows[y].Src]
	}
	byPair := make([]int32, len(flows))
	for i := range byPair {
		byPair[i] = int32(i)
	}
	slices.SortFunc(byPair, func(x, y int32) int {
		return cmp.Or(cmp.Compare(dstOf(x), dstOf(y)),
			cmp.Compare(hosts[flows[x].Src], hosts[flows[y].Src]), injectionCmp(flows, x, y))
	})
	nextInPair := make([]int32, len(flows))
	pairs, ndst := 0, 0
	for i, fi := range byPair {
		nextInPair[fi] = -1
		if i+1 < len(byPair) && samePair(fi, byPair[i+1]) {
			nextInPair[fi] = byPair[i+1]
		}
		if i == 0 || !samePair(byPair[i-1], fi) {
			pairs++
		}
		if i == 0 || dstOf(byPair[i-1]) != dstOf(fi) {
			ndst++
		}
	}
	s := &Sim{g: g, cfg: cfg, hosts: hosts, flows: flows, nextInPair: nextInPair,
		head:   make([]int32, 0, pairs),
		dsts:   make([]int, 0, ndst),
		dstOff: make([]int32, 0, ndst+1),
		paths:  make([]pathInfo, pairs),
	}
	for i, fi := range byPair {
		if i > 0 && samePair(byPair[i-1], fi) {
			continue
		}
		if i == 0 || dstOf(byPair[i-1]) != dstOf(fi) {
			s.dsts = append(s.dsts, dstOf(fi))
			s.dstOff = append(s.dstOff, int32(len(s.head)))
		}
		s.head = append(s.head, fi)
	}
	s.dstOff = append(s.dstOff, int32(pairs))
	return s, nil
}

// Dsts returns the schedule's distinct destination hosts, ascending.
func (s *Sim) Dsts() []int { return s.dsts }

// Walker returns a path walker for one of workers workers, its slab
// sized for an even share of the pairs. The walker resolves the paths of
// every pair toward a block of destinations over a route set that holds
// their rules, and may be called again and again with other blocks and
// route sets; walkers of one Sim may run concurrently on distinct
// blocks. Walker itself is not safe for concurrent use.
func (s *Sim) Walker(workers int) func(r *routing.Routes, block []int) {
	w := newWalker(s, (len(s.head)+workers-1)/max(workers, 1))
	s.walkers = append(s.walkers, w)
	return w.walk
}

// Run checks the walked paths and runs the fluid engine over them. A
// route set for another graph, an invalid fabric configuration and a
// pair that failed to walk, the one whose first flow injects earliest,
// are errors, in that order.
func (s *Sim) Run(ctx context.Context) (*Result, error) {
	e, err := s.engine()
	if err != nil {
		return nil, err
	}
	return e.result(ctx)
}

// engine returns the engine over the walked paths, each pair queue's
// first injection armed.
func (s *Sim) engine() (*engine, error) {
	for _, w := range s.walkers {
		if w.foreign != nil {
			return nil, w.foreign
		}
	}
	if err := checkConfig(s.cfg); err != nil {
		return nil, err
	}
	var failed *walker
	for _, w := range s.walkers {
		if w.err != nil && (failed == nil || injectionCmp(s.flows, w.errFlow, failed.errFlow) < 0) {
			failed = w
		}
	}
	if failed != nil {
		return nil, failed.err
	}
	for _, w := range s.walkers {
		w.final()
	}
	flows, pairs := s.flows, len(s.head)
	st := make([]flowState, len(flows))
	for pid, fi := range s.head {
		for ; fi >= 0; fi = s.nextInPair[fi] {
			st[fi] = flowState{path: &s.paths[pid], remaining: float64(flows[fi].Bytes)}
		}
	}
	// Effective payload capacity of one directed link: line rate derated
	// by framing overhead, in payload bytes per picosecond.
	cfg := &s.cfg
	capacity := cfg.LinkBps / 8 / float64(netsim.Second) * float64(cfg.MTU) / float64(cfg.MTU+netsim.HeaderBytes)
	e := &engine{
		flows:      flows,
		st:         st,
		nextInPair: s.nextInPair,
		pairs:      pairs,
		pending:    make([]pendEntry, 0, pairs), // one entry per pair queue at most
		fair:       newFairTable(st, 2*len(s.g.Edges), func(int32) float64 { return capacity }),
	}
	// Arm each pair queue's first injection at its start time.
	for _, fi := range s.head {
		e.pushPending(pendEntry{ready: math.Max(0, float64(flows[fi].Start)), fi: fi})
	}
	return e, nil
}

// result runs the engine and summarises the run.
func (e *engine) result(ctx context.Context) (*Result, error) {
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return &Result{
		ACT:        e.last,
		Completed:  e.completed,
		Recomputes: e.recomputes,
		Pairs:      e.pairs,
	}, nil
}

// injectionCmp orders flows by start time, ties by index — the same
// deterministic schedule order NewFlowApp injects with.
func injectionCmp(flows []netsim.Flow, x, y int32) int {
	return cmp.Or(cmp.Compare(flows[x].Start, flows[y].Start), cmp.Compare(x, y))
}

// engine is the event loop state: time advances to the earlier of the
// next eligible injection and the earliest completion under the current
// rates, and the max-min allocation is recomputed whenever the active
// set changes.
type engine struct {
	flows      []netsim.Flow
	st         []flowState
	nextInPair []int32 // flow → the next flow of its pair queue, or -1
	pairs      int     // distinct (src, dst) pair queues
	pending    []pendEntry
	active     []int32
	fair       fairTable // the active flows' links, kept across recomputes

	t          float64
	last       netsim.Time
	completed  int
	recomputes int64
}

func (e *engine) run(ctx context.Context) error {
	// Each iteration admits at least one injection or retires at least
	// one completion, so the loop is bounded by 2n events; the guard
	// catches numeric stalls instead of hanging.
	maxIter := 2*len(e.flows) + 16
	for iter := 0; len(e.pending) > 0 || len(e.active) > 0; iter++ {
		if iter > maxIter {
			return fmt.Errorf("flowsim: event loop exceeded %d iterations (numeric stall?)", maxIter)
		}
		if iter%64 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		nextArr := math.Inf(1)
		if len(e.pending) > 0 {
			nextArr = e.pending[0].ready
		}
		nextDone := math.Inf(1)
		for _, fi := range e.active {
			s := &e.st[fi]
			if d := e.t + s.remaining/s.rate; d < nextDone {
				nextDone = d
			}
		}
		te := math.Min(nextArr, nextDone)
		// Drain transmitted bytes up to te. The explicit float64 rounds
		// the product, so no architecture fuses it into the subtraction.
		for _, fi := range e.active {
			s := &e.st[fi]
			s.remaining -= float64(s.rate * (te - e.t))
		}
		e.t = te
		changed := false
		if nextDone <= te {
			changed = e.completeDue() || changed
		}
		for len(e.pending) > 0 && e.pending[0].ready <= e.t {
			changed = e.admit(e.popPending()) || changed
		}
		if changed && len(e.active) > 0 {
			e.recompute()
		}
	}
	return nil
}

// completeDue retires every active flow whose remaining payload has
// drained (within half a byte — the event time was chosen as some
// flow's exact completion, so at least one always retires). Completion
// stamps End = transmit-done + the path's zero-load latency, and
// releases the pair queue's successor.
func (e *engine) completeDue() bool {
	const epsBytes = 0.5
	out := e.active[:0]
	done := false
	for _, fi := range e.active {
		s := &e.st[fi]
		if s.remaining > epsBytes {
			out = append(out, fi)
			continue
		}
		e.fair.remove(fi)
		e.finish(fi)
		done = true
	}
	e.active = out
	return done
}

// finish records flow fi's completion at the current time and arms the
// next flow of its pair queue.
func (e *engine) finish(fi int32) {
	f := &e.flows[fi]
	f.Completed = true
	f.End = netsim.Time(math.Round(e.t + e.st[fi].path.base))
	if f.End > e.last {
		e.last = f.End
	}
	e.completed++
	if nxt := e.nextInPair[fi]; nxt >= 0 {
		e.pushPending(pendEntry{ready: math.Max(e.t, float64(e.flows[nxt].Start)), fi: nxt})
	}
}

// admit moves one injected flow into the active set; zero-byte flows
// complete immediately without transmitting.
func (e *engine) admit(p pendEntry) bool {
	if e.st[p.fi].remaining <= 0 {
		e.finish(p.fi)
		return false
	}
	e.active = append(e.active, p.fi)
	e.fair.add(p.fi)
	return true
}

// recompute brings the max-min allocation of the active set up to date.
// The fair-share table already holds the active flows' links — admit
// and completeDue keep it current and note the links they touch — so
// only the components holding a touched link are walked and refilled.
func (e *engine) recompute() {
	e.recomputes++
	e.fair.refill()
}

// pushPending / popPending: a binary min-heap on (ready, flow index) —
// deterministic total order, one entry per pair queue at most.
func (e *engine) pushPending(p pendEntry) {
	e.pending = append(e.pending, p)
	i := len(e.pending) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pendLess(e.pending[i], e.pending[parent]) {
			break
		}
		e.pending[i], e.pending[parent] = e.pending[parent], e.pending[i]
		i = parent
	}
}

func (e *engine) popPending() pendEntry {
	top := e.pending[0]
	n := len(e.pending) - 1
	e.pending[0] = e.pending[n]
	e.pending = e.pending[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && pendLess(e.pending[l], e.pending[min]) {
			min = l
		}
		if r < n && pendLess(e.pending[r], e.pending[min]) {
			min = r
		}
		if min == i {
			break
		}
		e.pending[i], e.pending[min] = e.pending[min], e.pending[i]
		i = min
	}
	return top
}

func pendLess(a, b pendEntry) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.fi < b.fi
}
