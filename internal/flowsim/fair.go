package flowsim

// Max-min fair-share allocation by progressive filling (water-filling):
// every unfrozen flow's rate rises uniformly until some link saturates,
// the flows crossing a saturated link freeze at their current rate, and
// filling continues with the survivors until every flow is frozen. The
// result is the unique max-min allocation: no flow's rate can be
// increased without decreasing the rate of a flow that is no faster.
//
// Capacities are whatever units the caller uses (the engine passes
// payload bytes per picosecond). A flow crossing a zero-capacity link
// is frozen at rate 0. The computation is deterministic — identical
// inputs produce identical outputs; FuzzFairShare pins the invariants
// (no link over capacity, non-negative rates, max-min).
//
// The allocation decomposes over link-connected components: flows that
// share no link, directly or through other flows, never meet in a
// filling round. So the table fills each component on its own, and a
// recompute refills only the components that hold a link an arrival or
// completion touched; every other rate is still exact.
//
// The contract needs capacities >= 0. A link that still carries
// unfrozen flows then always has a residual above relEps·cap >= 0, so
// every candidate increment is non-negative and the round's minimum is
// the same value whatever order the candidates are visited in. Every
// value a component's fill computes depends only on its links' flow
// counts and capacities and on its flows' sets of links:
//
//   - the round's increment is a minimum over non-negative candidates;
//   - each residual follows its own recurrence rem ← rem − s·count;
//   - every flow frozen in a round takes the same level.
//
// So neither the local index a link holds, nor the order in which a
// link's flows are chained or the walk reaches its links, nor the
// history of arrivals and completions changes a bit: the rates are those
// of the plain per-link filling loop run on each component alone
// (oracle_test.go, FuzzFairShareOracle, FuzzRecomputeIncremental). They
// can differ from that loop run on every flow at once in the last ulps,
// because there a component's running level also sums the increments of
// rounds in which other components saturate.

// fairTable is the fair-share working set the engine keeps for a whole
// run. add and remove update it in O(path length) as flows arrive and
// complete and note the links they touch, so a recompute runs only the
// walk and the filling rounds of the components those links belong to.
//
// Storage is flat. Every (flow, hop) has a slot in one array, laid out
// once per table, and each link chains the slots crossing it. A link
// holds a local index while some active flow crosses it, and released
// indices are reused through a free list.
type fairTable struct {
	st      []flowState // flow → its slots; refill writes its rate
	thawed  []bool      // flow → reached by the running fill and not frozen yet
	linkCap func(gl int32) float64
	gcap    float64    // the capacity grouped links share: the first link's
	local   []int32    // global link → local index + 1, 0 while no flow crosses it
	links   []fairLink // local index → link; n == 0 marks a free index
	free    []int32    // released local indices
	slots   []fairSlot // flow f's hops are slots st[f].slot … st[f].slot+st[f].hops-1
	touched []int32    // local links add and remove changed since the last refill
	epoch   uint64     // components filled so far

	// fill's scratch, reused across calls.
	byCount []int32 // flow count → its group's index + 1 while a component fills
	walk    []int32 // the flows of the component being filled, in the order reached
	groups  []fairGroup
	live    []int32 // groups that still have members
	indiv   []int32 // individual links that still carry unfrozen flows
	sat     []int32 // links saturated in the current round
}

// fairLink is one directed link while active flows cross it.
type fairLink struct {
	cap  float64
	rem  float64 // fill: residual, once the link is individual
	gl   int32   // global link id
	n    int32   // slots chained on the link
	head int32   // first slot of the chain, -1 = none
	next int32   // fill: the next member of the link's group, -1 = none
	c    int32   // fill: unfrozen flows crossing it, once the link is individual
	mark uint64  // fill: 2·epoch once reached in a group, 2·epoch+1 once individual
}

// fairSlot is one hop of one flow: the local link it crosses and its
// neighbours in that link's chain.
type fairSlot struct {
	link, prev, next, flow int32
}

// fairGroup stands for every link of the component with the group
// capacity that started with the same flow count and has had none of
// its flows frozen yet: such links follow the identical recurrence
// rem ← rem − s·count, so one residual serves them all.
type fairGroup struct {
	rem  float64
	c    float64 // the members' flow count
	n    int32   // members still in the group
	head int32   // first member link; members chain through fairLink.next
}

// newFairTable lays out one slot per hop of every flow in st over a
// fabric of nLinks directed links; linkCap gives a link's capacity.
func newFairTable(st []flowState, nLinks int, linkCap func(gl int32) float64) fairTable {
	total := int32(0)
	for f := range st {
		st[f].slot = total
		st[f].hops = int32(len(st[f].path.links))
		total += st[f].hops
	}
	return fairTable{
		st:      st,
		linkCap: linkCap,
		local:   make([]int32, nLinks),
		slots:   make([]fairSlot, total),
		thawed:  make([]bool, len(st)),
	}
}

// add chains active flow f onto the links of its path, taking a local
// index for each link no other active flow crosses.
func (t *fairTable) add(f int32) {
	fs := &t.st[f]
	for h, gl := range fs.path.links {
		l := t.local[gl] - 1
		if l < 0 {
			l = t.acquire(gl)
		}
		lk := &t.links[l]
		s := fs.slot + int32(h)
		t.slots[s] = fairSlot{link: l, prev: -1, next: lk.head, flow: f}
		if lk.head >= 0 {
			t.slots[lk.head].prev = s
		}
		lk.head = s
		lk.n++
		t.touched = append(t.touched, l)
	}
}

// acquire gives global link gl a local index, reusing a released one
// when there is one. The first link sets the capacity groups share;
// in the engine every link has it.
func (t *fairTable) acquire(gl int32) int32 {
	lk := fairLink{cap: t.linkCap(gl), gl: gl, head: -1}
	var l int32
	if n := len(t.free); n > 0 {
		l = t.free[n-1]
		t.free = t.free[:n-1]
		t.links[l] = lk
	} else {
		if len(t.links) == 0 {
			t.gcap = lk.cap
		}
		l = int32(len(t.links))
		t.links = append(t.links, lk)
	}
	t.local[gl] = l + 1
	return l
}

// remove unchains flow f from its links and releases every link no
// active flow crosses any more.
func (t *fairTable) remove(f int32) {
	fs := &t.st[f]
	for s := fs.slot; s < fs.slot+fs.hops; s++ {
		sl := t.slots[s]
		lk := &t.links[sl.link]
		if sl.prev >= 0 {
			t.slots[sl.prev].next = sl.next
		} else {
			lk.head = sl.next
		}
		if sl.next >= 0 {
			t.slots[sl.next].prev = sl.prev
		}
		lk.n--
		if lk.n == 0 {
			t.local[lk.gl] = 0
			t.free = append(t.free, sl.link)
		}
		t.touched = append(t.touched, sl.link)
	}
}

// refill recomputes the allocation of every component that holds a
// link add or remove touched since the last refill, and writes each of
// its flows' rates into their flowState. A removal can split its
// component, but every part keeps one of the removed flow's links, so
// walking out from each touched link that is still live reaches them
// all; a released link (n == 0) has no flows left to refill. The rates
// of the other components cannot have changed, and they are left as
// they are.
func (t *fairTable) refill() {
	first := 2 * (t.epoch + 1) // the lowest mark this refill's walks set
	for _, l := range t.touched {
		if lk := &t.links[l]; lk.n > 0 && lk.mark < first {
			t.fill(t.slots[lk.head].flow)
		}
	}
	t.touched = t.touched[:0]
}

// fill computes the allocation of the component holding active flow
// f0. It first walks the component, from each flow to its links and on
// to the flows chained on them, putting every link into the group of
// its flow count (or, at another capacity, on its own) as it is
// reached. It then performs the operations of the plain filling loop on
// the component — one residual per link, rem[l] −= s·cnt[l] each round,
// every unfrozen flow's rate += s each round — on fewer values:
//
//   - Every unfrozen flow's rate is the running level s₁+…+s_r, summed
//     in the same order, so a flow takes the level when it freezes and
//     no round touches the unfrozen flows.
//   - Saturation is found by link: a saturated link freezes the
//     unfrozen flows on its chain, so each flow is frozen once instead
//     of being rescanned every round.
//   - Links of one group share one residual until one of their flows
//     freezes; the link then takes the group's residual and, if flows
//     remain on it, continues as an individual link.
//
// A round therefore costs the live groups plus the live individual
// links, not every link of the component. Every unfrozen flow crosses a
// live group member or an individual link with flows left, so each
// round has an increment, and at least the arg-min link saturates: the
// loop terminates.
func (t *fairTable) fill(f0 int32) {
	const relEps = 1e-9
	links, slots, st, thawed, gcap := t.links, t.slots, t.st, t.thawed, t.gcap
	t.epoch++
	in, out := 2*t.epoch, 2*t.epoch+1 // a reached link's mark in its group, and once individual

	groups, live, indiv, byCount := t.groups[:0], t.live[:0], t.indiv[:0], t.byCount
	thawed[f0] = true
	walk := append(t.walk[:0], f0)
	for i := 0; i < len(walk); i++ {
		fs := &st[walk[i]]
		for _, hop := range slots[fs.slot : fs.slot+fs.hops] {
			lk := &links[hop.link]
			if lk.mark >= in {
				continue
			}
			for sp := lk.head; sp >= 0; sp = slots[sp].next {
				if f := slots[sp].flow; !thawed[f] {
					thawed[f] = true
					walk = append(walk, f)
				}
			}
			if lk.cap != gcap {
				lk.mark, lk.c, lk.rem = out, lk.n, lk.cap
				indiv = append(indiv, hop.link)
				continue
			}
			lk.mark = in
			for int(lk.n) >= len(byCount) {
				byCount = append(byCount, 0)
			}
			g := byCount[lk.n] - 1
			if g < 0 {
				g = int32(len(groups))
				byCount[lk.n] = g + 1
				groups = append(groups, fairGroup{rem: gcap, c: float64(lk.n), head: -1})
				live = append(live, g)
			}
			lk.next = groups[g].head
			groups[g].head = hop.link
			groups[g].n++
		}
	}
	unfrozen := len(walk)

	level := 0.0
	sat := t.sat[:0]
	for unfrozen > 0 {
		// The uniform rate increment every unfrozen flow can still take:
		// the tightest link's residual capacity split across its flows.
		// Groups whose members have all left and links whose flows have
		// all frozen drop out here.
		s := -1.0
		keep := live[:0]
		for _, g := range live {
			gr := &groups[g]
			if gr.n == 0 {
				continue
			}
			keep = append(keep, g)
			if v := gr.rem / gr.c; s < 0 || v < s {
				s = v
			}
		}
		live = keep
		keep = indiv[:0]
		for _, l := range indiv {
			lk := &links[l]
			if lk.c == 0 {
				continue
			}
			keep = append(keep, l)
			if v := lk.rem / float64(lk.c); s < 0 || v < s {
				s = v
			}
		}
		indiv = keep
		level += s

		// Update every live residual and collect the saturated links
		// before freezing anything: a link that leaves a saturated group
		// below must still freeze its remaining flows.
		sat = sat[:0]
		for _, g := range live {
			gr := &groups[g]
			gr.rem -= float64(s * gr.c)
			if gr.rem <= relEps*gcap {
				for l := gr.head; l >= 0; l = links[l].next {
					if links[l].mark == in {
						sat = append(sat, l)
					}
				}
			}
		}
		for _, l := range indiv {
			lk := &links[l]
			lk.rem -= float64(s * float64(lk.c))
			if lk.rem <= relEps*lk.cap {
				sat = append(sat, l)
			}
		}

		for _, sl := range sat {
			for sp := links[sl].head; sp >= 0; sp = slots[sp].next {
				f := slots[sp].flow
				if !thawed[f] {
					continue
				}
				thawed[f] = false
				fs := &st[f]
				fs.rate = level
				unfrozen--
				for _, hop := range slots[fs.slot : fs.slot+fs.hops] {
					lk := &links[hop.link]
					if lk.mark == out {
						lk.c--
						continue
					}
					gr := &groups[byCount[lk.n]-1]
					lk.mark = out
					lk.c = lk.n - 1
					gr.n--
					if lk.c > 0 {
						lk.rem = gr.rem
						indiv = append(indiv, hop.link)
					}
				}
			}
		}
	}
	for _, gr := range groups {
		byCount[int(gr.c)] = 0
	}
	t.groups, t.live, t.indiv, t.sat, t.walk, t.byCount = groups, live, indiv, sat, walk, byCount
}
