// Package routing implements the SDT controller's Routing Strategy
// module (§V-2) and the deadlock-avoidance schemes of Table III.
//
// A Strategy computes, for a logical topology, a set of forwarding
// Rules: per logical switch, destination host (and optionally ingress
// port and virtual-channel tag) → output port and next tag. Rules are
// substrate-independent; they compile either onto the logical topology
// (full-testbed simulation) or through a projection Plan onto physical
// OpenFlow switches (SDT).
//
// Deadlock freedom for lossless (PFC) operation is verified by building
// the channel dependency graph over (link, direction, VC) channels and
// checking it is acyclic (Dally & Seitz). Strategies that need VC
// transitions (Dragonfly, Torus) express them through the Tag field.
package routing

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/openflow"
	"repro/internal/par"
	"repro/internal/topology"
)

// Rule is one forwarding decision on a logical switch.
type Rule struct {
	Switch  int // logical switch vertex ID
	InPort  int // logical ingress port; 0 = any
	Dst     int // destination host vertex ID
	Tag     int // required VC tag; openflow.Any = any
	OutPort int // logical egress port
	NewTag  int // -1 = keep tag, else rewrite
}

// Routes is the output of a Strategy.
//
// A rule whose Switch or Dst is not a vertex of Topo matches nothing:
// Lookup and the compiled FIB miss on it and Reroute leaves it alone.
// Only a manual set can hold one; every strategy, UGAL and repair emits
// graph vertices, and a per-destination build that emits another switch
// fails.
type Routes struct {
	Topo     *topology.Graph
	Strategy string
	NumVCs   int // number of distinct VC tags used (>=1)
	Rules    []Rule

	// The lookup index and the compiled FIB are derived from Rules on
	// first use and held behind atomic pointers, as a graph's CSR is:
	// goroutines that race on a shared set's first Lookup, Walk or FIB
	// each build an identical copy, and one of them fills the slot.
	// Every rule mutation drops both; mutating a set while it is read
	// is a caller error.
	idx atomic.Pointer[routeIndex]
	fib atomic.Pointer[FIB]
}

// offGraph reports whether a rule's switch or destination is not a
// vertex of g, so that the rule matches nothing.
func offGraph(g *topology.Graph, r *Rule) bool {
	n := uint(len(g.Vertices))
	return uint(r.Switch) >= n || uint(r.Dst) >= n
}

// routeIndex is a route set's lookup index. It puts the rules in index
// order, (Switch, Dst, specificity descending, position), so the rules
// of one (switch, dst) group are adjacent and most specific first:
// index position i holds Rules[at(i)]. order is that permutation of
// rule positions, or empty when Rules is already in index order, as
// every strategy-built set with one rule per group is. rowOff[s]
// counts the rules whose Switch is below s, for s in
// 0..len(Topo.Vertices), so switch vertex s owns index positions
// rowOff[s]:rowOff[s+1]; the rules off the graph sit outside every
// row, and nothing reads them.
type routeIndex struct {
	order  []int32
	rowOff []int32
}

// Strategy computes routes for a topology.
type Strategy interface {
	Name() string
	Compute(g *topology.Graph) (*Routes, error)
}

// Fixed adapts an already-computed route set into a Strategy — the
// bridge that lets a run Scenario carry routes produced outside a
// strategy, such as the Network Monitor's UGAL active routes.
type Fixed struct{ Routes *Routes }

// Name reports the wrapped route set's strategy name.
func (f Fixed) Name() string {
	if f.Routes == nil {
		return "fixed"
	}
	return f.Routes.Strategy
}

// Compute returns the wrapped routes, rejecting a topology mismatch
// (rules reference vertex IDs of the topology they were computed for).
func (f Fixed) Compute(g *topology.Graph) (*Routes, error) {
	if f.Routes == nil {
		return nil, fmt.Errorf("routing: Fixed with nil Routes")
	}
	if f.Routes.Topo != g {
		return nil, fmt.Errorf("routing: fixed routes were computed for topology %q, not %q",
			f.Routes.Topo.Name, g.Name)
	}
	return f.Routes, nil
}

func newRoutes(g *topology.Graph, name string, vcs int) *Routes {
	return &Routes{Topo: g, Strategy: name, NumVCs: vcs}
}

// NewManualRoutes starts an empty route set for a user-defined routing
// strategy ("users can develop their routing strategy ... with the SDT
// controller", §I). Add rules with AddRule; verify with
// VerifyDeadlockFree before deploying on a lossless fabric.
func NewManualRoutes(g *topology.Graph, name string, numVCs int) *Routes {
	return newRoutes(g, name, numVCs)
}

// AddRule appends a forwarding rule to a manual route set.
func (r *Routes) AddRule(rule Rule) { r.add(rule) }

func (r *Routes) add(rule Rule) {
	r.Rules = append(r.Rules, rule)
	r.invalidate()
}

// invalidate drops the derived lookup structures after a rule mutation.
func (r *Routes) invalidate() {
	r.idx.Store(nil)
	r.fib.Store(nil)
}

// specificity ranks a rule among those of its (switch, dst) group: an
// ingress-port match outranks a tag match, which outranks a wildcard.
func specificity(r *Rule) int {
	s := 0
	if r.InPort != 0 {
		s += 2
	}
	if r.Tag != openflow.Any {
		s++
	}
	return s
}

// compareGroup orders rules by their (Switch, Dst) group.
func compareGroup(a, b *Rule) int {
	if a.Switch != b.Switch {
		return cmp.Compare(a.Switch, b.Switch)
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// index returns the lookup index, building it on first use.
func (r *Routes) index() *routeIndex {
	if x := r.idx.Load(); x != nil {
		return x
	}
	return r.buildIndex()
}

// buildIndex builds the lookup index and fills its slot; index keeps
// the already-built case, every Lookup's, small enough to inline.
func (r *Routes) buildIndex() *routeIndex {
	x := new(routeIndex)
	x.build(r.Rules, len(r.Topo.Vertices))
	r.idx.Store(x)
	return x
}

// build indexes rules over n vertices in O(rules) for any rule list
// that is already grouped in (Switch, Dst) order — every strategy-built
// set — reusing x's storage where it holds the index: ForEachBlock's
// workers reindex one routeIndex block after block. It first checks the
// rules in place: a list that is grouped and has each group most
// specific first, as every set with one rule per group is, is its own
// index order and gets no permutation at all. A grouped list that is
// not ranked (the strategies with several rules per group) gets the
// identity with each group put most specific first, and a list that is
// not grouped (manual sets, a repair's appended trees) pays one stable
// comparator sort of the permutation. Rule positions are int32, as in
// the FIB.
func (x *routeIndex) build(rules []Rule, n int) {
	grouped, ranked := true, true
	for i := 1; i < len(rules) && grouped; i++ {
		if c := compareGroup(&rules[i-1], &rules[i]); c > 0 {
			grouped = false
		} else if c == 0 && specificity(&rules[i-1]) < specificity(&rules[i]) {
			ranked = false
		}
	}
	x.order = x.order[:0]
	if !grouped || !ranked {
		order := resize(x.order, len(rules))
		for i := range order {
			order[i] = int32(i)
		}
		if !grouped {
			slices.SortStableFunc(order, func(a, b int32) int { return compareGroup(&rules[a], &rules[b]) })
		}
		x.order = order
		bySpec := func(a, b int32) int { return specificity(&rules[b]) - specificity(&rules[a]) }
		for lo, hi := 0, 0; lo < len(order); lo = hi {
			if hi = x.groupEnd(rules, lo); hi-lo > 1 {
				slices.SortStableFunc(order[lo:hi], bySpec)
			}
		}
	}
	rowOff := resize(x.rowOff, n+1)
	clear(rowOff)
	for i := range rules {
		if sw := rules[i].Switch; sw < 0 {
			rowOff[0]++
		} else if sw < n {
			rowOff[sw+1]++
		}
	}
	for s := 1; s <= n; s++ {
		rowOff[s] += rowOff[s-1]
	}
	x.rowOff = rowOff
}

// resize returns s with n elements, in its own storage when that holds
// them; the elements keep whatever they held.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// at returns the position in Rules of the rule at index position i.
func (x *routeIndex) at(i int) int32 {
	if len(x.order) == 0 {
		return int32(i)
	}
	return x.order[i]
}

// groupEnd returns the end of the (switch, dst) group of rules that
// starts at index position lo.
func (x *routeIndex) groupEnd(rules []Rule, lo int) int {
	first := &rules[x.at(lo)]
	hi := lo + 1
	for hi < len(rules) && compareGroup(first, &rules[x.at(hi)]) == 0 {
		hi++
	}
	return hi
}

// Prime builds the lookup index and the compiled FIB now rather than on
// first use, so a caller can time the build apart from the first read.
// No reader needs it: every accessor builds what it reads.
func (r *Routes) Prime() {
	r.FIB()
}

// FIB returns the compiled forwarding table for this rule set, building
// it on first use. The result is invalidated (and recompiled on next
// call) whenever rules are added.
func (r *Routes) FIB() *FIB {
	if f := r.fib.Load(); f != nil {
		return f
	}
	return r.compileFIB()
}

// compileFIB compiles the FIB and fills its slot; FIB keeps the
// already-compiled case, every forwarded hop's, small enough to inline.
func (r *Routes) compileFIB() *FIB {
	f := r.Compile()
	r.fib.Store(f)
	return f
}

// Lookup finds the most specific rule on switch sw for a packet
// arriving on logical port inPort with the given destination and tag.
// It returns nil when no rule applies, and so whenever sw or dst is
// not a vertex of Topo.
//
// It takes the switch's row of the index, binary-searches the row for
// the first rule of the (sw, dst) group and scans the group, which is
// stored most specific first.
//
// This is the reference implementation the compiled FIB is
// differential-tested against (and oracle_test.go holds the map-backed
// index this one replaced, as Lookup's own reference). The per-packet
// forwarding path uses FIB.Forward; a caller that resolves each path
// once, like flowsim's walker, uses Lookup and compiles no FIB.
func (r *Routes) Lookup(sw, inPort, dst, tag int) *Rule {
	x := r.index()
	if n := uint(len(x.rowOff) - 1); uint(sw) >= n || uint(dst) >= n {
		return nil
	}
	rules := r.Rules
	lo, end := int(x.rowOff[sw]), int(x.rowOff[sw+1])
	for hi := end; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if m := &rules[x.at(mid)]; m.Switch < sw || m.Switch == sw && m.Dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < end; lo++ {
		rule := &rules[x.at(lo)]
		if rule.Switch != sw || rule.Dst != dst {
			break
		}
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

// computeWorkers is the worker count for per-destination route builds
// (0 = GOMAXPROCS, 1 = serial): on the one-shape path and in
// ForEachBlock, the number of block builders, each taking every
// computeWorkers-th block; on the
// general path, par.For's workers, one job per destination. The
// determinism test forces it above 1 so the fan-out is exercised under
// -race even on single-CPU machines.
var computeWorkers = 0

// shapeBlock is how many destinations a block builder builds into its
// buffer before writing their rules into place. The first block of a
// compute also decides whether its runs have one shape.
const shapeBlock = 8

// computeForDsts fans a strategy's rule builds over an explicit
// destination set and leaves r.Rules as placeRuns places the
// destinations' runs in dsts order: independent of scheduling and
// byte-identical to a serial build.
//
// The first block of destinations is built serially, and it decides
// the path. When its runs have one shape — every run names the same
// switches in the same order, as fat-tree, dragonfly, mesh and
// shortest-path runs do — every rule has a fixed place (runLayout), and
// the rules are written straight into the final array: the first
// block's, then the other blocks', which the workers build into buffers
// they reuse and write contiguously into each switch's segment. No
// destination keeps a run. A later run of another shape, or a failed
// build, discards that work, and the general path builds every run
// again (the builds are pure). Runs of several shapes — TorusClue's:
// the destination's own switch emits one rule, every other switch
// several — take the general path from the first block on: its runs and
// a run per remaining destination go through placeRuns, which stays the
// oracle for both paths (FuzzComputeForDsts).
//
// build runs concurrently and must only read shared state.
func computeForDsts(r *Routes, g *topology.Graph, dsts []int, build func(dst int, emit func(Rule)) error) error {
	// Every strategy emits at least one rule per switch it routes from,
	// so a run of that size spares the first dozen append doublings.
	nsw := g.NumSwitches()
	nv := len(g.Vertices)
	n := min(len(dsts), shapeBlock)
	first := newBlockBuilder(nv, n*nsw)
	head, err := first.build(dsts[:n], build)
	if err != nil {
		return err
	}
	done := 0
	if lay, ok := newRunLayout(nv, head, dsts); ok {
		if out, ok := lay.fill(first, head, build); ok {
			r.Rules = out
			r.invalidate()
			return nil
		}
	} else {
		done = len(head)
	}
	runs := make([]dstRun, len(dsts))
	copy(runs, head[:done])
	err = par.For(computeWorkers, len(dsts)-done, func(i int) error {
		// Each job owns exactly its destination's run.
		run := &runs[done+i]
		run.dst, run.nv = dsts[done+i], nv
		run.rules = make([]runRule, 0, nsw)
		if err := build(run.dst, run.emit); err != nil {
			return err
		}
		return run.err
	})
	if err != nil {
		return err
	}
	r.Rules = placeRuns(nil, make([]int, 2*nv), nv, runs)
	r.invalidate()
	return nil
}

// blockWorkers is the number of block builders for the given number of
// blocks: computeWorkers, or GOMAXPROCS when it is 0, and never more
// than the blocks or fewer than one.
func blockWorkers(blocks int) int {
	workers := computeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, blocks), 1)
}

// blockBuilder builds the runs of a block of destinations one after
// another into one buffer, which it reuses from block to block; its
// emit closure is made once.
type blockBuilder struct {
	buf  dstRun // the block's rules, run after run; dst is the one being built
	emit func(Rule)
	runs []dstRun // the block's runs, views of buf.rules
}

// newBlockBuilder returns a block builder over nv vertices whose buffer
// holds the given number of rules.
func newBlockBuilder(nv, rules int) *blockBuilder {
	b := &blockBuilder{buf: dstRun{nv: nv, rules: make([]runRule, 0, rules)}, runs: make([]dstRun, 0, shapeBlock)}
	b.emit = b.buf.emit
	return b
}

// build builds the runs of dsts, in order, and returns them; they hold
// until the next call. The first failed build's error is returned, as
// the general path's par.For returns the lowest-index one.
func (b *blockBuilder) build(dsts []int, build func(dst int, emit func(Rule)) error) ([]dstRun, error) {
	b.buf.rules, b.buf.err = b.buf.rules[:0], nil
	b.runs = b.runs[:0]
	for _, d := range dsts {
		start := len(b.buf.rules)
		b.buf.dst = d
		if err := build(d, b.emit); err != nil {
			return nil, err
		}
		if b.buf.err != nil {
			return nil, b.buf.err
		}
		// A later append that outgrows the buffer leaves this view on
		// the old array, which keeps its rules.
		b.runs = append(b.runs, dstRun{dst: d, rules: b.buf.rules[start:]})
	}
	return b.runs, nil
}

// runLayout places runs of one shape. placeRuns' scatter fills each
// switch's segment destination after destination, each with its rules
// on that switch in emission order; so when every run names the same
// switches in the same order, rule i of the j-th destination's run
// lands at at[i] + j*step[i], where step[i] is the run's rule count on
// that switch.
type runLayout struct {
	dsts      []int
	ascending bool      // dsts strictly ascend
	shape     []runRule // a run of the shape, whose switches every run names
	at, step  []int     // per rule of the shape: its place for dsts[0], and its switch's rules per run
	start     []int     // per vertex: where its segment begins
}

// newRunLayout returns the layout over nv vertices of the runs toward
// dsts when head, the runs of its first destinations, have one shape;
// otherwise it reports false, having allocated nothing.
func newRunLayout(nv int, head []dstRun, dsts []int) (runLayout, bool) {
	if len(head) == 0 || !oneShape(head[1:], head[0].rules) {
		return runLayout{}, false
	}
	// The shape outlives head, whose buffer the first block builder
	// reuses.
	shape := slices.Clone(head[0].rules)
	buf := make([]int, nv+2*len(shape))
	l := runLayout{dsts: dsts, ascending: true, shape: shape,
		start: buf[:nv], at: buf[nv : nv+len(shape)], step: buf[nv+len(shape):]}
	for i := 1; i < len(dsts); i++ {
		l.ascending = l.ascending && dsts[i-1] < dsts[i]
	}
	for i, rr := range shape {
		l.at[i] = l.start[rr.sw] // its rank among the run's rules on the switch
		l.start[rr.sw]++
	}
	for i, rr := range shape {
		l.step[i] = l.start[rr.sw]
	}
	pos := 0
	for s, c := range l.start {
		l.start[s] = pos
		pos += c * len(dsts)
	}
	for i, rr := range shape {
		l.at[i] += l.start[rr.sw]
	}
	return l, true
}

// oneShape reports whether every run names the switches of shape, in
// its order.
func oneShape(runs []dstRun, shape []runRule) bool {
	for _, run := range runs {
		if len(run.rules) != len(shape) {
			return false
		}
		for i, rr := range run.rules {
			if rr.sw != shape[i].sw {
				return false
			}
		}
	}
	return true
}

// fill returns the rule array with every run in place: head, the first
// block's runs, which b built, then the other blocks, which one block
// builder per worker (b among them) builds, each taking every
// workers-th block. It reports false, and the array is dropped, when a
// build fails or a run has another shape. A segment with several rules
// per run, or every segment when dsts do not strictly ascend, gets
// placeRuns' is-sorted check, and a stable sort if that fails.
func (l *runLayout) fill(b *blockBuilder, head []dstRun, build func(dst int, emit func(Rule)) error) ([]Rule, bool) {
	out := make([]Rule, len(l.shape)*len(l.dsts))
	l.put(out, 0, head)
	blocks := (len(l.dsts) - len(head) + shapeBlock - 1) / shapeBlock
	workers := blockWorkers(blocks)
	var broken atomic.Bool
	par.For(workers, workers, func(w int) error {
		wb := b
		if w > 0 {
			wb = newBlockBuilder(len(l.start), shapeBlock*len(l.shape))
		}
		for k := w; k < blocks && !broken.Load(); k += workers {
			lo := len(head) + k*shapeBlock
			runs, err := wb.build(l.dsts[lo:min(lo+shapeBlock, len(l.dsts))], build)
			if err != nil || !oneShape(runs, l.shape) {
				broken.Store(true)
				return nil
			}
			l.put(out, lo, runs)
		}
		return nil
	})
	if broken.Load() {
		return nil, false
	}
	for i, rr := range l.shape {
		if lo := l.at[i]; lo == l.start[rr.sw] && (l.step[i] > 1 || !l.ascending) {
			if seg := out[lo : lo+l.step[i]*len(l.dsts)]; !slices.IsSortedFunc(seg, compareRules) {
				slices.SortStableFunc(seg, compareRules)
			}
		}
	}
	return out, true
}

// put writes runs, those toward dsts[j0:], into place: switch segment
// by switch segment, so a block's rules on one switch land side by
// side.
func (l *runLayout) put(out []Rule, j0 int, runs []dstRun) {
	for i, at := range l.at {
		step := l.step[i]
		p := at + j0*step
		for _, run := range runs {
			out[p] = run.rules[i].widen(run.dst)
			p += step
		}
	}
}

// runRule is one rule of a destination's run: a Rule less its Dst,
// which the run implies, with int32 fields — 20 bytes to a Rule's 48.
type runRule struct {
	sw, inPort, tag, out, newTag int32
}

// dstRun is the rules one strategy build emitted toward dst over a
// graph of nv vertices, in emission order. err records the first rule
// that has no runRule form or names a switch off the graph.
type dstRun struct {
	dst, nv int
	rules   []runRule
	err     error
}

// widen returns the Rule rr stands for in dst's run.
func (rr runRule) widen(dst int) Rule {
	return Rule{Switch: int(rr.sw), InPort: int(rr.inPort), Dst: dst,
		Tag: int(rr.tag), OutPort: int(rr.out), NewTag: int(rr.newTag)}
}

// emit appends a rule to the run. A rule toward another destination,
// on a switch that is not a vertex, or with a field int32 cannot hold,
// is an error rather than a truncation: the first is recorded, and
// such rules are dropped. A vertex ID fits int32, as the graph's
// adjacency index holds it.
func (d *dstRun) emit(rule Rule) {
	if uint(rule.Switch) < uint(d.nv) && (rule.Dst^d.dst)|narrowLoss(rule.InPort)|narrowLoss(rule.Tag)|
		narrowLoss(rule.OutPort)|narrowLoss(rule.NewTag) == 0 {
		d.rules = append(d.rules, runRule{int32(rule.Switch), int32(rule.InPort),
			int32(rule.Tag), int32(rule.OutPort), int32(rule.NewTag)})
		return
	}
	if d.err != nil {
		return
	}
	if rule.Dst != d.dst {
		d.err = fmt.Errorf("routing: rule %+v emitted while routing toward host %d", rule, d.dst)
	} else if uint(rule.Switch) >= uint(d.nv) {
		d.err = fmt.Errorf("routing: rule %+v names switch %d of a graph of %d vertices", rule, rule.Switch, d.nv)
	} else {
		d.err = fmt.Errorf("routing: rule %+v has a field outside the int32 range", rule)
	}
}

// narrowLoss returns the bits v loses as an int32: 0 iff it fits.
func narrowLoss(v int) int { return v ^ int(int32(v)) }

// compareRules is the canonical rule order: (Switch, Dst, Tag, InPort).
func compareRules(a, b Rule) int {
	if c := compareGroup(&a, &b); c != 0 {
		return c
	}
	if a.Tag != b.Tag {
		return cmp.Compare(a.Tag, b.Tag)
	}
	return cmp.Compare(a.InPort, b.InPort)
}

// placeRuns returns the rules of the runs, concatenated in order and
// stably sorted by compareRules, in time linear in the rules for the
// runs the strategies produce. It writes them into out's storage,
// grown when it is too small, and takes buf, 2*nv ints, as scratch. A stable sort whose leading key is a
// switch vertex ID is a stable bucketing by switch — count, prefix-sum,
// scatter in input order — followed by a stable sort of every switch's
// segment on the remaining keys. The count pass also proves segments
// sorted: a switch whose rules arrive in strictly ascending destination
// order has one rule per (switch, dst) group, already in order. That
// is every segment of a set computeForDsts builds from canonical
// destinations with one rule per group, so such a set checks no
// segment. Only the other segments — a strategy that emits several
// rules per group, as the torus strategies do, or runs out of
// destination order — pay a check, and a sort when the group's rules
// came out of (Tag, InPort) order. The scatter widens each rule once,
// straight into the final array. Every run's switches are in [0, nv),
// as emit keeps them.
func placeRuns(out []Rule, buf []int, nv int, runs []dstRun) []Rule {
	// next[s] counts switch s's rules, then is the position of its next
	// rule, and after the scatter the end of its segment. last[s] is the
	// destination of switch s's latest rule, or math.MaxInt once a
	// destination failed to exceed its predecessor's: no later
	// destination exceeds it, so the segment stays unproven. (A real
	// destination of math.MaxInt reads as unproven too, which only costs
	// its segment a check.)
	next, last := buf[:nv], buf[nv:2*nv]
	clear(next)
	total := 0
	for _, run := range runs {
		total += len(run.rules)
		for _, rr := range run.rules {
			sw := int(rr.sw)
			if next[sw] > 0 && run.dst <= last[sw] {
				last[sw] = math.MaxInt
			} else {
				last[sw] = run.dst
			}
			next[sw]++
		}
	}
	out = resize(out, total)
	at := 0
	for s, n := range next {
		next[s] = at
		at += n
	}
	for _, run := range runs {
		for _, rr := range run.rules {
			out[next[rr.sw]] = rr.widen(run.dst)
			next[rr.sw]++
		}
	}
	lo := 0
	for s, hi := range next {
		if seg := out[lo:hi]; last[s] == math.MaxInt && !slices.IsSortedFunc(seg, compareRules) {
			slices.SortStableFunc(seg, compareRules)
		}
		lo = hi
	}
	return out
}

// DstComputer is a Strategy whose route build is an independent pure
// function per destination host — true of every Table III strategy —
// letting callers compute rules for a *subset* of destinations.
// ComputeFor(g, subset) returns exactly the full route set restricted
// to those destinations (pinned by TestComputeForMatchesSubset); route
// sets grow as switches × hosts, ~GBs on a 10k-host fat-tree, so a
// caller that routes toward a few hosts computes only their rules.
// ForEachBlock builds the same rules a block of destinations at a time
// for a caller that reads each block once and keeps none: a flow-level
// run, which walks its host pairs and drops the rules.
type DstComputer interface {
	Strategy
	// ComputeFor computes routes toward the given destination hosts
	// only. Destinations are deduplicated and sorted, so equal sets
	// produce byte-identical rule lists regardless of input order.
	ComputeFor(g *topology.Graph, dsts []int) (*Routes, error)
	// plan returns the route build ComputeFor runs.
	plan() dstPlan
}

// dstPlan is a DstComputer's route build: the route set's strategy name
// and VC count, and the per-destination builder.
type dstPlan struct {
	name string
	vcs  int
	mk   dstBuilder
}

// dstBuilder is the per-strategy factory behind the shared compute
// driver: it validates the topology once and returns the
// per-destination rule build.
type dstBuilder func(g *topology.Graph) (build func(dst int, emit func(Rule)) error, err error)

// computeStrategy runs one strategy's per-destination builder over the
// given destinations (nil = every host) and finalises the route set.
func computeStrategy(g *topology.Graph, p dstPlan, dsts []int) (*Routes, error) {
	dsts, build, err := p.prepare(g, dsts)
	if err != nil {
		return nil, err
	}
	r := newRoutes(g, p.name, p.vcs)
	if err := computeForDsts(r, g, dsts, build); err != nil {
		return nil, err
	}
	return r, nil
}

// prepare validates the destinations (nil = every host) and returns
// them canonical, with the per-destination build.
func (p dstPlan) prepare(g *topology.Graph, dsts []int) ([]int, func(dst int, emit func(Rule)) error, error) {
	if dsts == nil {
		dsts = g.Hosts()
	} else {
		var err error
		if dsts, err = canonicalDsts(g, dsts); err != nil {
			return nil, nil, fmt.Errorf("routing: %s: %w", p.name, err)
		}
	}
	// A configuration file may hold a host with no link; no strategy
	// can route to it.
	for _, d := range dsts {
		if g.HostSwitch(d) < 0 {
			return nil, nil, fmt.Errorf("routing: %s: host %d has no switch", p.name, d)
		}
	}
	build, err := p.mk(g)
	if err != nil {
		return nil, nil, err
	}
	return dsts, build, nil
}

// canonicalDsts validates a destination subset (host vertices of g) and
// returns it sorted and deduplicated. It validates in sorted order, so
// a set with several bad destinations names the smallest, whatever the
// order it came in.
func canonicalDsts(g *topology.Graph, dsts []int) ([]int, error) {
	out := slices.Clone(dsts)
	sort.Ints(out)
	n := 0
	for i, d := range out {
		if d < 0 || d >= len(g.Vertices) || g.Vertices[d].Kind != topology.Host {
			return nil, fmt.Errorf("destination %d is not a host of %s", d, g.Name)
		}
		if i == 0 || d != out[i-1] {
			out[n] = d
			n++
		}
	}
	return out[:n], nil
}

// ShortestPath is the generic strategy: BFS trees rooted at every
// destination host's switch, deterministic tie-breaking by vertex ID.
// Single VC; deadlock-free only on acyclic-channel topologies (trees,
// fat-trees via up/down shape) — use VerifyDeadlockFree to check.
type ShortestPath struct{}

// Name implements Strategy.
func (ShortestPath) Name() string { return "shortest-path" }

// Compute implements Strategy.
func (s ShortestPath) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, s.plan(), nil)
}

// ComputeFor implements DstComputer.
func (s ShortestPath) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, s.plan(), dsts)
}

func (ShortestPath) plan() dstPlan { return dstPlan{"shortest-path", 1, shortestPathBuilder} }

// shortestPathBuilder returns the per-destination BFS-tree rule build.
func shortestPathBuilder(g *topology.Graph) (func(dst int, emit func(Rule)) error, error) {
	csr := g.CSR()
	return func(dst int, emit func(Rule)) error {
		return bfsTree(g, csr, dst, nil, emit)
	}, nil
}

// bfsTree emits single-VC rules toward host dst along the BFS tree
// rooted at dst's switch over the switches, skipping every edge down
// reports (nil: nothing is down): ShortestPath's tree and a fault
// repair's. next[v] is the neighbour of v one hop closer to the root;
// CSR rows ascend by neighbour vertex ID, so ties break by vertex ID. A
// destination whose every attachment is down gets no rules.
func bfsTree(g *topology.Graph, csr *topology.CSR, dst int, down func(edge int) bool, emit func(Rule)) error {
	root := g.HostSwitch(dst)
	if root < 0 || alivePortTo(csr, root, dst, down) < 0 {
		return nil
	}
	nv := len(g.Vertices)
	next := make([]int32, nv)
	for i := range next {
		next[i] = -1
	}
	queue := make([]int32, 1, nv)
	next[root] = int32(root)
	queue[0] = int32(root)
	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		lo, hi := csr.Row(v)
		for e := lo; e < hi; e++ {
			o := csr.Nbr[e]
			if g.Vertices[o].Kind != topology.Switch || next[o] >= 0 {
				continue
			}
			if down != nil && down(int(csr.Edge[e])) {
				continue
			}
			next[o] = int32(v)
			queue = append(queue, o)
		}
	}
	for sw := 0; sw < nv; sw++ {
		if next[sw] < 0 {
			continue
		}
		to := int(next[sw])
		if sw == root {
			to = dst
		}
		out := alivePortTo(csr, sw, to, down)
		if out <= 0 {
			return fmt.Errorf("routing: no port from %d toward %d", sw, dst)
		}
		emit(Rule{Switch: sw, Dst: dst, Tag: openflow.Any, OutPort: out, NewTag: -1})
	}
	return nil
}

// alivePortTo returns the port on `from` of the lowest-ID edge to
// neighbour `to` that down does not report, or -1 when there is none.
// With parallel edges the BFS may admit a neighbour over a surviving
// edge while the lowest-ID one is cut, so the port must be looked up
// among the survivors. CSR rows ascend by (neighbour, edge ID), so the
// first match is the lowest ID: with nothing down it is CSR.PortTo.
func alivePortTo(csr *topology.CSR, from, to int, down func(edge int) bool) int {
	lo, hi := csr.Row(from)
	for e := lo; e < hi && int(csr.Nbr[e]) <= to; e++ {
		if int(csr.Nbr[e]) == to && (down == nil || !down(int(csr.Edge[e]))) {
			return int(csr.Port[e])
		}
	}
	return -1
}

// Walk follows the rules from host src to host dst and calls link for
// every directed link the packet crosses, in order: the uplink out of
// src, then one link per switch hop, the last of which delivers to dst.
// from is the vertex the link leaves, edge its ID and tag the VC tag
// the packet carries on it (0 on the uplink: hosts send untagged).
// A source that is not a host, a source with no switch, a switch with
// no rule, an out port with no edge, a packet delivered to another
// host and a walk of more than |V|·max(NumVCs, 1)+2 switch hops (a
// forwarding loop) are errors.
// Walk keeps nothing of link, so a closure passed to it stays on the
// caller's stack.
//
// It is the one hop-by-hop walk of the rules: TracePath, the deadlock
// verifier's channel trace and flowsim's path resolution consume it.
func (r *Routes) Walk(src, dst int, link func(from, edge, tag int)) error {
	g := r.Topo
	if src < 0 || src >= len(g.Vertices) || g.Vertices[src].Kind != topology.Host {
		return fmt.Errorf("routing: %s: source %d is not a host of %s", r.Strategy, src, g.Name)
	}
	csr := g.CSR()
	cur := g.HostSwitch(src)
	if cur < 0 {
		return fmt.Errorf("routing: %s: host %d unattached", r.Strategy, src)
	}
	up := g.EdgeBetween(src, cur)
	link(src, up, 0)
	inPort, tag := g.Edges[up].PortAt(cur), 0
	limit := len(g.Vertices)*max(r.NumVCs, 1) + 2
	for steps := 0; ; steps++ {
		if steps > limit {
			return fmt.Errorf("routing: %s: path %d->%d exceeds %d hops (loop?)", r.Strategy, src, dst, limit)
		}
		rule := r.Lookup(cur, inPort, dst, tag)
		if rule == nil {
			return fmt.Errorf("routing: %s: no rule on switch %d for dst %d tag %d", r.Strategy, cur, dst, tag)
		}
		if rule.NewTag >= 0 {
			tag = rule.NewTag
		}
		eid := csr.EdgeAt(cur, rule.OutPort)
		if eid < 0 {
			return fmt.Errorf("routing: %s: switch %d out port %d dangling", r.Strategy, cur, rule.OutPort)
		}
		link(cur, eid, tag)
		e := &g.Edges[eid]
		nxt := e.Other(cur)
		if nxt == dst {
			return nil
		}
		if g.Vertices[nxt].Kind != topology.Switch {
			return fmt.Errorf("routing: %s: path %d->%d delivered to wrong host %d", r.Strategy, src, dst, nxt)
		}
		cur, inPort = nxt, e.PortAt(nxt)
	}
}

// TracePath returns the switches a packet from host src to host dst
// passes, in order (nil when src == dst), or Walk's error. fig12 labels
// its streams' hops and congestion points with it, and the packet-fabric
// benchmark counts its schedule's packet-hops with it.
func (r *Routes) TracePath(src, dst int) ([]int, error) {
	if src == dst {
		return nil, nil
	}
	var path []int
	err := r.Walk(src, dst, func(from, _, _ int) {
		if from != src {
			path = append(path, from)
		}
	})
	if err != nil {
		return nil, err
	}
	return path, nil
}
