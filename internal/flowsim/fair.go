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
// The contract needs capacities >= 0. A link that still carries
// unfrozen flows then always has a residual above relEps·cap >= 0, so
// every candidate increment is non-negative and the round's minimum is
// the same value whatever order the candidates are visited in. Every
// value the fill computes depends only on each link's initial flow
// count and capacity and on each flow's set of links:
//
//   - the round's increment is a minimum over non-negative candidates;
//   - each residual follows its own recurrence rem ← rem − s·count;
//   - every flow frozen in a round takes the same level.
//
// So neither the local index a link holds nor the order in which a
// link's flows are chained changes a bit, which is what lets the engine
// keep the table between recomputes, and lets fill visit groups and
// links in an order of its own, and still return the bits of the plain
// per-link filling loop (oracle_test.go, FuzzFairShareOracle,
// FuzzRecomputeIncremental).

// fairTable is the fair-share working set the engine keeps for a whole
// run. add and remove update it in O(path length) as flows arrive and
// complete, so a recompute runs only the filling rounds: nothing is
// remapped or rebuilt per call.
//
// Storage is flat. Every (flow, hop) has a slot in one array, laid out
// once per table, and each link chains the slots crossing it. A link
// holds a local index while some active flow crosses it, and released
// indices are reused through a free list. Each link also sits in the
// bucket of its slot count, so fill starts one group per non-empty
// bucket without visiting the links.
type fairTable struct {
	st      []flowState // flow → its slots; fill writes its rate
	frozen  []bool      // fill: flow → its rate is final for this call
	linkCap func(gl int32) float64
	gcap    float64      // the capacity grouped links share: the first link's
	local   []int32      // global link → local index + 1, 0 while no flow crosses it
	links   []fairLink   // local index → link; n == 0 marks a free index
	free    []int32      // released local indices
	slots   []fairSlot   // flow f's hops are slots st[f].slot … st[f].slot+st[f].hops-1
	buckets []fairBucket // slot count → the links of capacity gcap with that count; 0 → every link of another capacity
	epoch   uint64       // fill calls so far

	// fill's scratch, reused across calls.
	groups []fairGroup
	live   []int32 // groups that still have members
	indiv  []int32 // individual links that still carry unfrozen flows
	sat    []int32 // links saturated in the current round
}

// fairLink is one directed link while active flows cross it.
type fairLink struct {
	cap  float64
	rem  float64 // fill: residual, once the link is individual
	gl   int32   // global link id
	n    int32   // slots chained on the link
	head int32   // first slot of the chain, -1 = none
	pos  int32   // index in its bucket's members
	c    int32   // fill: unfrozen flows crossing it, once the link is individual
	left uint64  // fill: the epoch in which the link became individual
}

// fairSlot is one hop of one flow: the local link it crosses and its
// neighbours in that link's chain.
type fairSlot struct {
	link, prev, next, flow int32
}

// fairBucket holds the local indices of its links, in no order.
type fairBucket struct {
	members []int32
	group   int32 // fill: the group the bucket's links start in
}

// fairGroup stands for every link of the group capacity that started
// with the same flow count and has had none of its flows frozen yet:
// such links follow the identical recurrence rem ← rem − s·count, so one
// residual serves them all.
type fairGroup struct {
	rem    float64
	c      float64 // the members' flow count
	n      int32   // members still in the group
	bucket int32   // the bucket whose links the group starts with
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
		frozen:  make([]bool, len(st)),
		buckets: make([]fairBucket, 1),
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
		t.recount(l, +1)
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
		t.recount(sl.link, -1)
		if lk.n == 0 {
			t.local[lk.gl] = 0
			t.free = append(t.free, sl.link)
		}
	}
}

// recount changes link l's slot count by d and moves the link to the
// bucket of its new count; a link whose count falls to 0 leaves every
// bucket.
func (t *fairTable) recount(l, d int32) {
	lk := &t.links[l]
	from := t.bucketOf(lk)
	was := lk.n
	lk.n += d
	to := t.bucketOf(lk)
	if was > 0 && (lk.n == 0 || to != from) {
		b := &t.buckets[from]
		last := b.members[len(b.members)-1]
		b.members[lk.pos] = last
		t.links[last].pos = lk.pos
		b.members = b.members[:len(b.members)-1]
	}
	if lk.n > 0 && (was == 0 || to != from) {
		for int(to) >= len(t.buckets) {
			t.buckets = append(t.buckets, fairBucket{})
		}
		b := &t.buckets[to]
		lk.pos = int32(len(b.members))
		b.members = append(b.members, l)
	}
}

// bucketOf is the bucket link lk belongs in: its slot count if it has
// the group capacity, 0 otherwise.
func (t *fairTable) bucketOf(lk *fairLink) int32 {
	if lk.cap != t.gcap {
		return 0
	}
	return lk.n
}

// fill computes the allocation of the active flows, which must be
// exactly the flows added and not removed, and writes each one's rate
// into its flowState. It performs the operations of the plain filling
// loop — one residual per link, rem[l] −= s·cnt[l] each round, every
// unfrozen flow's rate += s each round — on fewer values:
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
// links, not every used link. At least the arg-min link saturates per
// round, so the loop terminates.
func (t *fairTable) fill(active []int32) {
	const relEps = 1e-9
	links, slots, st, frozen, buckets, gcap := t.links, t.slots, t.st, t.frozen, t.buckets, t.gcap

	// One group per non-empty bucket; links of another capacity start
	// individual.
	t.epoch++
	epoch := t.epoch
	groups := t.groups[:0]
	live := t.live[:0]
	for n := 1; n < len(buckets); n++ {
		b := &buckets[n]
		if len(b.members) == 0 {
			continue
		}
		b.group = int32(len(groups))
		live = append(live, b.group)
		groups = append(groups, fairGroup{rem: gcap, c: float64(n), n: int32(len(b.members)), bucket: int32(n)})
	}
	indiv := t.indiv[:0]
	for _, l := range buckets[0].members {
		lk := &links[l]
		lk.left = epoch
		lk.c = lk.n
		lk.rem = lk.cap
		indiv = append(indiv, l)
	}

	for _, f := range active {
		frozen[f] = false
	}
	unfrozen := len(active)
	level := 0.0
	sat := t.sat[:0]
	for unfrozen > 0 {
		// The uniform rate increment every unfrozen flow can still take:
		// the tightest link's residual capacity split across its flows.
		// Groups whose members have all left and links whose flows have
		// all frozen drop out here.
		s := -1.0
		out := live[:0]
		for _, g := range live {
			gr := &groups[g]
			if gr.n == 0 {
				continue
			}
			out = append(out, g)
			if v := gr.rem / gr.c; s < 0 || v < s {
				s = v
			}
		}
		live = out
		out = indiv[:0]
		for _, l := range indiv {
			lk := &links[l]
			if lk.c == 0 {
				continue
			}
			out = append(out, l)
			if v := lk.rem / float64(lk.c); s < 0 || v < s {
				s = v
			}
		}
		indiv = out
		if s < 0 {
			// No unfrozen flow crosses any link (defensive; paths are
			// never empty in the engine) — the rest take the level below.
			break
		}
		level += s

		// Update every live residual and collect the saturated links
		// before freezing anything: a link that leaves a saturated group
		// below must still freeze its remaining flows.
		sat = sat[:0]
		for _, g := range live {
			gr := &groups[g]
			gr.rem -= float64(s * gr.c)
			if gr.rem <= relEps*gcap {
				for _, l := range buckets[gr.bucket].members {
					if links[l].left != epoch {
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
				if frozen[f] {
					continue
				}
				frozen[f] = true
				fs := &st[f]
				fs.rate = level
				unfrozen--
				for _, hop := range slots[fs.slot : fs.slot+fs.hops] {
					lk := &links[hop.link]
					if lk.left == epoch {
						lk.c--
						continue
					}
					gr := &groups[buckets[lk.n].group]
					lk.left = epoch
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
	if unfrozen > 0 {
		for _, f := range active {
			if !frozen[f] {
				st[f].rate = level
			}
		}
	}
	t.groups, t.live, t.indiv, t.sat = groups, live, indiv, sat
}
