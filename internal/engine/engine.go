// Package engine is a zero-allocation, cancellable discrete-event
// scheduler — the execution core under the packet-level simulator.
//
// Design, in the style of high-rate simulators:
//
//   - Events are typed records (a Handler interface plus an inline
//     payload), not heap-allocated closures. Scheduling an event in
//     steady state allocates nothing: records live in a slab recycled
//     through a free list, and the queue holds only keys.
//   - The queue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and
//     Tarjan, 1990). Simulated time never runs backwards, so every key
//     is at or after the last one popped, `last`; an entry lives in
//     bucket bits.Len64(at ^ last). Bucket 0 (keys equal to last) is a
//     slice in scheduling order; buckets 1–64 are intrusive lists in
//     one shared node pool, so queue memory follows the number of
//     queued events, not the number of buckets. When bucket 0 runs dry,
//     the lowest non-empty bucket is redistributed: last becomes its
//     smallest key and every entry drops to a strictly lower bucket.
//     Each entry carries its (at, seq) key inline, so ordering never
//     reads the slab.
//   - In front of the radix queue sit a few FIFO lanes, one per
//     recurring delay at − now. A packet fabric repeats a handful of
//     delays — serialisation of a full frame, the wire up to the
//     header, a crossbar, PFC, pacing. On the 128-host fat-tree, whose
//     events are 33 % tx-done, 33 % wire arrival and 27 % crossbar,
//     95 % of events take a lane. Now never decreases and seq always
//     increases, so a lane is in (at, seq) order by construction and
//     costs one list append and one pop. A delay claims an empty lane
//     when it is the last delay that missed in its slot of a small
//     hash table; random delays almost never repeat exactly, so they
//     bypass the lanes for the radix queue and pay only the lookup. A
//     pop takes the smallest (at, seq) among the lane heads and the
//     radix front, and a radix bucket is redistributed only when its
//     minimum is at or below the best lane head.
//   - Every scheduled event returns a Handle with O(1) Cancel: the
//     record's generation moves on and the queue entry goes stale,
//     to be dropped when it reaches the front. A compaction pass runs
//     whenever stale entries outnumber pending ones, so producers that
//     re-arm timers (TCP RTO, rate pacers) keep the queue O(pending).
//   - Equal-time events fire in scheduling order (time, then a
//     monotonic sequence number), so runs are bit-for-bit
//     deterministic. Entries that land in bucket 0 by redistribution
//     are sorted by sequence number, since a bucket is not kept in
//     order.
//
// A closure convenience API (At/After) remains for cold paths such as
// measurement sampling; it rides the same typed machinery: the closure
// waits in an engine-side table, and its event names the slot by Ref.
//
// Cancellation: Run can be stopped from outside the event loop via a
// cooperative stop flag (SetStop). The flag is checked every
// StopStride fired events — not per event — so the hot loop stays
// branch-cheap and a cancelled run halts within one stride.
package engine

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Time is simulation time in picoseconds. Integer picoseconds make
// 10 Gbps arithmetic exact (0.8 ns/byte = 800 ps/byte) and cover ~106
// days in an int64.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a Time to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is the inline payload of a scheduled occurrence. Kind
// discriminates event types within one handler; Ref names an object in
// the handler's own storage (a packet, a port, a rank) by index, and A
// and B carry integer arguments — enough for every event in the
// simulator without a per-event allocation. It holds no pointer, so a
// record's only pointer is its Handler.
type Event struct {
	Kind int32
	Ref  int32
	A, B int64
}

// Handler consumes fired events. Implementations are long-lived
// simulation objects (a network, a switch, a transport connection), so
// storing one in an event record never allocates.
type Handler interface {
	OnEvent(now Time, ev Event)
}

// Callback is a deferred handler invocation — a (Handler, Event) pair
// that APIs like mailboxes can store and schedule later via Post.
type Callback struct {
	H  Handler
	Ev Event
}

// closures backs the At/After convenience API: a closure waits in fns
// until its event, which names the slot by Ref, fires; free lists the
// empty slots.
type closures struct {
	fns  []func()
	free []int32
}

func (c *closures) OnEvent(_ Time, ev Event) {
	fn := c.fns[ev.Ref]
	c.fns[ev.Ref] = nil
	c.free = append(c.free, ev.Ref)
	fn()
}

// Handle identifies a pending event for Cancel. The zero
// Handle is never live, so uninitialised fields are safe to cancel.
type Handle struct {
	slot int32
	gen  uint32
}

// record is one slab entry, 48 bytes with the Handler its only
// pointer. gen increments on every release, so stale Handles and the
// queue entries of cancelled events die; a free slot's gen has never
// been handed out.
type record struct {
	h   Handler
	ev  Event
	gen uint32
}

// entry is a queued event's key and slab reference. gen is the record's
// generation at scheduling time: an entry whose record has moved on
// was cancelled, and is stale.
type entry struct {
	at   Time
	seq  int64
	slot int32
	gen  uint32
}

// node is a list cell of buckets 1–64 and of the lanes; next indexes
// the pool, 0 ends.
type node struct {
	entry
	next int32
}

// lane is a FIFO of queued entries that were pushed with one delay d =
// at − now. Now never decreases and seq always increases, so appending
// keeps a lane in (at, seq) order. head and tail index the node pool,
// 0 when the lane is empty; at and seq are the head's key.
type lane struct {
	d, at      Time
	seq        int64
	head, tail int32
}

// numLanes is the number of lanes. Four take 95 % of a fat-tree's
// events and 83 % of an SDT trace replay's; eight take more off the
// radix queue, but every pop scans them, and the cells mostly ran
// slower.
const numLanes = 4

// StopStride is the number of events fired between checks of
// the cooperative stop flag during Run. Large enough that the check is
// free relative to event dispatch, small enough that cancellation
// lands in microseconds of wall clock.
const StopStride = 4096

// Engine is the scheduler. The zero value is ready to use; New exists
// as the conventional constructor.
type Engine struct {
	now   Time
	seq   int64
	fired int64
	recs  []record
	free  []int32

	// The radix queue. Every queued key is >= last. b0[head:] is
	// bucket 0 in seq order; lists[b] heads bucket b+1 in nodes, whose
	// element 0 is the nil cell, mins[b] is its smallest key, and bit
	// b of mask says it is non-empty. spare links the free nodes.
	last    Time
	b0      []entry
	head    int
	lists   [64]int32
	mins    [64]Time
	mask    uint64
	nodes   []node
	spare   int32
	pending int // live events
	stale   int // cancelled entries still queued

	// The lanes. Bit i of lmask says lanes[i] is non-empty. seen holds
	// the last delay that missed every lane, per hash slot: a delay
	// that misses twice in its slot claims an empty lane. from is
	// where front found the next event: a lane, or -1 for b0[head].
	lanes [numLanes]lane
	lmask uint32
	seen  [16]Time
	from  int

	// stop, when non-nil, is polled every StopStride fired events by
	// Run; a true load makes Run return early, events still queued.
	stop *atomic.Bool

	fns closures // At/After's closures
}

// New returns a scheduler at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() int64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.pending }

// Schedule arranges for h.OnEvent(ev) to run at absolute time t
// (clamped to now). Equal-time events run in scheduling order.
func (e *Engine) Schedule(t Time, h Handler, ev Event) Handle {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.recs = append(e.recs, record{gen: 1})
		slot = int32(len(e.recs) - 1)
	}
	r := &e.recs[slot]
	r.h, r.ev = h, ev
	e.pending++
	e.push(entry{at: t, seq: e.seq, slot: slot, gen: r.gen})
	return Handle{slot: slot, gen: r.gen}
}

// ScheduleAfter schedules d after now.
func (e *Engine) ScheduleAfter(d Time, h Handler, ev Event) Handle {
	return e.Schedule(e.now+d, h, ev)
}

// Post schedules a stored Callback at absolute time t.
func (e *Engine) Post(t Time, cb Callback) Handle { return e.Schedule(t, cb.H, cb.Ev) }

// At schedules fn at absolute time t (closure convenience; cold paths).
func (e *Engine) At(t Time, fn func()) {
	c := &e.fns
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.fns = append(c.fns, nil)
		i = int32(len(c.fns) - 1)
	}
	c.fns[i] = fn
	e.Schedule(t, c, Event{Ref: i})
}

// After schedules fn d after now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// live reports whether hd names a still-pending event.
func (e *Engine) live(hd Handle) bool {
	return hd.gen != 0 && int(hd.slot) < len(e.recs) && e.recs[hd.slot].gen == hd.gen
}

// Cancel removes a pending event so it never fires. It reports whether
// the event was still pending; cancelling an already-fired, already-
// cancelled, or zero Handle is a safe no-op.
func (e *Engine) Cancel(hd Handle) bool {
	if !e.live(hd) {
		return false
	}
	e.release(hd.slot)
	e.pending--
	e.stale++
	if e.stale > e.pending {
		e.compact()
	}
	return true
}

// release recycles a slot onto the free list and invalidates
// outstanding handles. Events hold no pointer and handlers are
// long-lived, so nothing needs clearing for the GC.
func (e *Engine) release(slot int32) {
	e.recs[slot].gen++
	e.free = append(e.free, slot)
}

// Step runs the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if !e.front() {
		return false
	}
	e.fire()
	return true
}

// fire pops and runs the front event; front must have reported true.
func (e *Engine) fire() {
	var en entry
	if e.from < 0 {
		en = e.b0[e.head]
		e.head++
	} else {
		en = e.popLane(e.from)
	}
	r := &e.recs[en.slot]
	e.now = en.at
	h, ev := r.h, r.ev
	e.release(en.slot)
	e.pending--
	if e.stale > e.pending {
		e.compact()
	}
	e.fired++
	h.OnEvent(e.now, ev)
}

// SetStop installs a cooperative cancellation flag: Run polls it every
// StopStride fired events and returns early once it loads true. A nil
// flag detaches cancellation. The flag is the only engine state ever
// touched from another goroutine, which is what makes an atomic
// sufficient.
func (e *Engine) SetStop(flag *atomic.Bool) { e.stop = flag }

// Run executes events until the queue drains or the time limit passes
// (limit 0 = no limit); stopping at the limit moves the clock up to
// it, never back. If a stop flag is installed (SetStop), it is
// checked before the first event and then every StopStride events, so
// a cancelled run halts within one stride. Run returns the final
// simulation time.
func (e *Engine) Run(limit Time) Time {
	if e.stop != nil && e.stop.Load() {
		return e.now
	}
	check := e.fired + StopStride
	for e.front() {
		if limit > 0 && e.frontAt() > limit {
			e.now = max(e.now, limit)
			break
		}
		e.fire()
		if e.stop != nil && e.fired >= check {
			if e.stop.Load() {
				break
			}
			check = e.fired + StopStride
		}
	}
	return e.now
}

// --- lanes and the monotone radix queue -----------------------------

func (e *Engine) isLive(en *entry) bool { return e.recs[en.slot].gen == en.gen }

// bucket returns the list index of a key above last: bucket
// bits.Len64(at^last) lives in lists[bucket-1].
func (e *Engine) bucket(at Time) int { return bits.Len64(uint64(at^e.last)) - 1 }

// push queues en: on the lane of its delay if one serves it, else in
// the radix queue. A delay that no lane serves claims an empty lane
// when it is the last delay that missed in its seen slot, so random
// delays stay in the radix queue and leave the lanes empty.
func (e *Engine) push(en entry) {
	d := en.at - e.now
	for i := range e.lanes {
		if e.lanes[i].d == d {
			e.enqueue(i, e.newNode(en))
			return
		}
	}
	if h := uint64(d) * 0x9e3779b97f4a7c15 >> 60; e.seen[h] != d {
		e.seen[h] = d
	} else if free := ^e.lmask & (1<<numLanes - 1); free != 0 {
		i := bits.TrailingZeros32(free)
		e.lanes[i].d = d
		e.enqueue(i, e.newNode(en))
		return
	}
	e.pushRadix(en)
}

// enqueue links node k at the tail of lane i. Its key sorts after
// every entry there: it was pushed later, so its seq is larger, and
// with the lane's delay at a now that is no earlier.
func (e *Engine) enqueue(i int, k int32) {
	l := &e.lanes[i]
	e.nodes[k].next = 0
	if l.head == 0 {
		l.head, l.at, l.seq = k, e.nodes[k].at, e.nodes[k].seq
		e.lmask |= 1 << i
	} else {
		e.nodes[l.tail].next = k
	}
	l.tail = k
}

// popLane removes and returns the head of non-empty lane i.
func (e *Engine) popLane(i int) entry {
	l := &e.lanes[i]
	k := l.head
	en := e.nodes[k].entry
	if l.head = e.nodes[k].next; l.head == 0 {
		e.lmask &^= 1 << i
	} else {
		l.at, l.seq = e.nodes[l.head].at, e.nodes[l.head].seq
	}
	e.unlink(k)
	return en
}

// pushRadix queues en in the radix queue. Into an empty radix queue it
// goes straight to bucket 0, last moving up to its key — or, while the
// lanes hold earlier events, up to now only, so that the radix pushes
// their handlers make do not land below last. A key below last —
// possible once Run(limit) has peeked past a limit and a caller then
// schedules at now — first rebases the queue on that key.
func (e *Engine) pushRadix(en entry) {
	if e.mask == 0 && e.head == len(e.b0) {
		e.b0, e.head, e.last = e.b0[:0], 0, en.at
		if e.lmask != 0 {
			e.last = e.now
		}
	} else if en.at < e.last {
		e.rebase(en.at)
	}
	if en.at == e.last {
		e.b0 = append(e.b0, en) // the newest seq: order holds
		return
	}
	e.link(e.bucket(en.at), e.newNode(en))
}

// newNode returns a pool node holding en, reusing a spare one.
func (e *Engine) newNode(en entry) int32 {
	i := e.spare
	if i != 0 {
		e.spare = e.nodes[i].next
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{})
		}
		e.nodes = append(e.nodes, node{})
		i = int32(len(e.nodes) - 1)
	}
	e.nodes[i].entry = en
	return i
}

// link puts node i at the head of list b.
func (e *Engine) link(b int, i int32) {
	n := &e.nodes[i]
	if e.mask&(1<<b) == 0 || n.at < e.mins[b] {
		e.mins[b] = n.at
	}
	n.next = e.lists[b]
	e.lists[b] = i
	e.mask |= 1 << b
}

// unlink frees node i onto the spare list.
func (e *Engine) unlink(i int32) {
	e.nodes[i].next = e.spare
	e.spare = i
}

// detach empties list b and returns its former head.
func (e *Engine) detach(b int) int32 {
	i := e.lists[b]
	e.lists[b] = 0
	e.mask &^= 1 << b
	return i
}

// front finds the smallest (at, seq) among the lane heads and the
// radix queue's front, dropping stale entries on the way, and reports
// whether a live event remains; e.from then says where it is. When
// bucket 0 has run dry, the lowest non-empty bucket is redistributed
// only if its minimum is at or below the best lane head: otherwise a
// lane event comes first anyway.
func (e *Engine) front() bool {
	for {
		li, at, seq := -1, Time(0), int64(0)
		for m := e.lmask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if l := &e.lanes[i]; li < 0 || l.at < at || l.at == at && l.seq < seq {
				li, at, seq = i, l.at, l.seq
			}
		}
		if e.head == len(e.b0) {
			e.b0, e.head = e.b0[:0], 0
			if b := bits.TrailingZeros64(e.mask); e.mask != 0 && (li < 0 || e.mins[b] <= at) {
				e.redistribute(b)
			}
		}
		if e.head < len(e.b0) {
			if en := &e.b0[e.head]; li < 0 || e.last < at || e.last == at && en.seq < seq {
				if e.isLive(en) {
					e.from = -1
					return true
				}
				e.head++
				e.stale--
				continue
			}
		}
		if li < 0 {
			return false
		}
		if e.isLive(&e.nodes[e.lanes[li].head].entry) {
			e.from = li
			return true
		}
		e.popLane(li)
		e.stale--
	}
}

// frontAt is the key of the event front found.
func (e *Engine) frontAt() Time {
	if e.from < 0 {
		return e.last
	}
	return e.lanes[e.from].at
}

// redistribute empties list b, the lowest non-empty bucket, into the
// buckets below it: last becomes the list's smallest key, whose
// entries go to bucket 0 sorted by seq, and every other entry drops to
// a strictly lower list. It reads only the queue, never the slab:
// stale entries move like live ones until front or compact drops them.
func (e *Engine) redistribute(b int) {
	e.last = e.mins[b]
	for i := e.detach(b); i != 0; {
		n := &e.nodes[i]
		next := n.next
		if n.at == e.last {
			e.b0 = append(e.b0, n.entry)
			e.unlink(i)
		} else {
			e.link(e.bucket(n.at), i)
		}
		i = next
	}
	if len(e.b0) > 1 {
		slices.SortFunc(e.b0, func(x, y entry) int { return cmp.Compare(x.seq, y.seq) })
	}
}

// rebase lowers last to t, which is below every queued key, and
// re-buckets the queue around it.
func (e *Engine) rebase(t Time) {
	old := e.b0[e.head:]
	e.b0, e.head = e.b0[:0], 0
	e.last = t
	lists, mask := e.lists, e.mask
	e.lists, e.mask = [64]int32{}, 0
	for ; mask != 0; mask &= mask - 1 {
		for i := lists[bits.TrailingZeros64(mask)]; i != 0; {
			next := e.nodes[i].next
			e.link(e.bucket(e.nodes[i].at), i)
			i = next
		}
	}
	for _, en := range old {
		if e.isLive(&en) {
			e.link(e.bucket(en.at), e.newNode(en))
		} else {
			e.stale--
		}
	}
}

// compact drops every stale entry, keeping the order of bucket 0 and
// of every lane. Cancel and fire call it whenever stale entries
// outnumber pending ones, so the queue never holds more than twice the
// pending events, and each call's cost is paid for by the stale
// entries it drops.
func (e *Engine) compact() {
	k := 0
	for _, en := range e.b0[e.head:] {
		if e.isLive(&en) {
			e.b0[k] = en
			k++
		}
	}
	e.b0, e.head = e.b0[:k], 0
	for mask := e.mask; mask != 0; mask &= mask - 1 {
		b := bits.TrailingZeros64(mask)
		for i := e.detach(b); i != 0; {
			next := e.nodes[i].next
			if e.isLive(&e.nodes[i].entry) {
				e.link(b, i)
			} else {
				e.unlink(i)
			}
			i = next
		}
	}
	for m := e.lmask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m)
		i := e.lanes[b].head
		e.lanes[b].head = 0
		e.lmask &^= 1 << b
		for i != 0 {
			next := e.nodes[i].next
			if e.isLive(&e.nodes[i].entry) {
				e.enqueue(b, i)
			} else {
				e.unlink(i)
			}
			i = next
		}
	}
	e.stale = 0
}
