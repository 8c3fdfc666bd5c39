// Package engine is a zero-allocation, cancellable discrete-event
// scheduler — the execution core under the packet-level simulator.
//
// Design, in the style of high-rate simulators:
//
//   - Events are typed records (a Handler interface plus an inline
//     payload), not heap-allocated closures. Scheduling an event in
//     steady state allocates nothing: records live in a slab recycled
//     through a free list, and the indexed binary heap orders record
//     indices, not records.
//   - Every scheduled event returns a Handle with O(log n) Cancel.
//     Producers that re-arm timers (TCP RTO, rate pacers) cancel the
//     pending record and schedule a new one instead of letting stale
//     events fire as no-ops.
//   - Equal-time events fire in scheduling order (time, then a
//     monotonic sequence number), so runs are bit-for-bit
//     deterministic.
//
// A closure convenience API (At/After) remains for cold paths such as
// measurement sampling; it rides the same typed machinery through an
// internal function-calling handler.
//
// Cancellation: Run can be stopped from outside the event loop via a
// cooperative stop flag (SetStop). The flag is checked every
// StopStride fired events — not per event — so the hot loop stays
// branch-cheap and a cancelled run halts within one stride.
package engine

import "sync/atomic"

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
// discriminates event types within one handler; A and B carry integer
// arguments and Ptr a single reference — enough for every event in the
// simulator without a per-event allocation.
type Event struct {
	Kind int32
	A, B int64
	Ptr  any
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

// funcHandler invokes a stored closure; it backs the At/After/FuncCB
// convenience API. The zero-size value boxes without allocating.
type funcHandler struct{}

func (funcHandler) OnEvent(_ Time, ev Event) { ev.Ptr.(func())() }

// FuncCB wraps a closure as a Callback.
func FuncCB(fn func()) Callback { return Callback{H: funcHandler{}, Ev: Event{Ptr: fn}} }

// Handle identifies a pending event for Cancel. The zero
// Handle is never live, so uninitialised fields are safe to cancel.
type Handle struct {
	slot int32
	gen  uint32
}

// record is one slab entry. pos tracks the record's index in the heap
// (-1 when free); gen increments on every release so stale Handles die.
type record struct {
	at  Time
	seq int64
	h   Handler
	ev  Event
	gen uint32
	pos int32
}

// StopStride is the default number of events fired between checks of
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
	heap  []int32

	// stop, when non-nil, is polled every stride fired events by Run;
	// a true load makes Run return early (Stopped reports this).
	stop    *atomic.Bool
	stride  int64
	stopped bool
}

// New returns a scheduler at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() int64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.heap) }

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
		e.recs = append(e.recs, record{gen: 1, pos: -1})
		slot = int32(len(e.recs) - 1)
	}
	r := &e.recs[slot]
	r.at, r.seq, r.h, r.ev = t, e.seq, h, ev
	e.heapPush(slot)
	return Handle{slot: slot, gen: r.gen}
}

// ScheduleAfter schedules d after now.
func (e *Engine) ScheduleAfter(d Time, h Handler, ev Event) Handle {
	return e.Schedule(e.now+d, h, ev)
}

// Post schedules a stored Callback at absolute time t.
func (e *Engine) Post(t Time, cb Callback) Handle { return e.Schedule(t, cb.H, cb.Ev) }

// At schedules fn at absolute time t (closure convenience; cold paths).
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, funcHandler{}, Event{Ptr: fn}) }

// After schedules fn d after now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// live reports whether hd names a still-pending event.
func (e *Engine) live(hd Handle) bool {
	return hd.gen != 0 && int(hd.slot) < len(e.recs) &&
		e.recs[hd.slot].gen == hd.gen && e.recs[hd.slot].pos >= 0
}

// Cancel removes a pending event so it never fires. It reports whether
// the event was still pending; cancelling an already-fired, already-
// cancelled, or zero Handle is a safe no-op.
func (e *Engine) Cancel(hd Handle) bool {
	if !e.live(hd) {
		return false
	}
	e.heapRemove(int(e.recs[hd.slot].pos))
	e.release(hd.slot)
	return true
}

// release recycles a slot onto the free list, clearing references so
// the GC can reclaim payloads, and invalidates outstanding handles.
func (e *Engine) release(slot int32) {
	r := &e.recs[slot]
	r.h, r.ev, r.pos = nil, Event{}, -1
	r.gen++
	e.free = append(e.free, slot)
}

// Step runs the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	slot := e.heapRemove(0)
	r := &e.recs[slot]
	e.now = r.at
	h, ev := r.h, r.ev
	e.release(slot)
	e.fired++
	h.OnEvent(e.now, ev)
	return true
}

// SetStop installs a cooperative cancellation flag: Run polls it every
// stride fired events (stride <= 0 means StopStride) and returns early
// once it loads true. A nil flag detaches cancellation. The flag is
// the only engine state ever touched from another goroutine, which is
// what makes an atomic sufficient.
func (e *Engine) SetStop(flag *atomic.Bool, stride int64) {
	if stride <= 0 {
		stride = StopStride
	}
	e.stop, e.stride = flag, stride
}

// Stopped reports whether the last Run returned because the stop flag
// was raised (as opposed to draining the queue or hitting its limit).
// It keeps reporting the last run's outcome after the flag is
// detached.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue drains or the time limit passes
// (limit 0 = no limit). If a stop flag is installed (SetStop), it is
// checked before the first event and then every stride events, so a
// cancelled run halts within one stride. Run returns the final
// simulation time.
func (e *Engine) Run(limit Time) Time {
	e.stopped = false
	if e.stop != nil && e.stop.Load() {
		e.stopped = true
		return e.now
	}
	check := e.fired + e.stride
	for len(e.heap) > 0 {
		if limit > 0 && e.recs[e.heap[0]].at > limit {
			e.now = limit
			break
		}
		e.Step()
		if e.stop != nil && e.fired >= check {
			if e.stop.Load() {
				e.stopped = true
				break
			}
			check = e.fired + e.stride
		}
	}
	return e.now
}

// --- indexed binary heap over record slots --------------------------

func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.recs[a], &e.recs[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

func (e *Engine) swap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	e.recs[h[i]].pos = int32(i)
	e.recs[h[j]].pos = int32(j)
}

func (e *Engine) heapPush(slot int32) {
	e.heap = append(e.heap, slot)
	i := len(e.heap) - 1
	e.recs[slot].pos = int32(i)
	e.siftUp(i)
}

// heapRemove deletes the element at heap index i, returning its slot.
func (e *Engine) heapRemove(i int) int32 {
	h := e.heap
	n := len(h) - 1
	slot := h[i]
	if i != n {
		h[i] = h[n]
		e.recs[h[i]].pos = int32(i)
	}
	h[n] = 0
	e.heap = h[:n]
	if i < n {
		e.fix(i)
	}
	e.recs[slot].pos = -1
	return slot
}

// fix restores heap order for a changed element at index i.
func (e *Engine) fix(i int) {
	e.siftDown(i)
	e.siftUp(i)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(h[i], h[p]) {
			break
		}
		e.swap(i, p)
		i = p
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			m = r
		}
		if !e.less(h[m], h[i]) {
			break
		}
		e.swap(i, m)
		i = m
	}
}
