package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// oracle is the indexed binary heap this package shipped before the
// radix queue, kept verbatim as the differential oracle for
// FuzzEngineOracle: the slab keeps each record's (at, seq) and heap
// position, and the heap orders slot indices.

// oracleRecord is one slab entry. pos tracks the record's index in the
// heap (-1 when free); gen increments on every release so stale Handles
// die.
type oracleRecord struct {
	at  Time
	seq int64
	h   Handler
	ev  Event
	gen uint32
	pos int32
}

type oracle struct {
	now   Time
	seq   int64
	fired int64
	recs  []oracleRecord
	free  []int32
	heap  []int32

	// stop, when non-nil, is polled every StopStride fired events by
	// Run; a true load makes Run return early, events still queued.
	stop *atomic.Bool
}

func newOracle() *oracle { return &oracle{} }

// Now returns the current simulation time.
func (e *oracle) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *oracle) Events() int64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *oracle) Pending() int { return len(e.heap) }

// Schedule arranges for h.OnEvent(ev) to run at absolute time t
// (clamped to now). Equal-time events run in scheduling order.
func (e *oracle) Schedule(t Time, h Handler, ev Event) Handle {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.recs = append(e.recs, oracleRecord{gen: 1, pos: -1})
		slot = int32(len(e.recs) - 1)
	}
	r := &e.recs[slot]
	r.at, r.seq, r.h, r.ev = t, e.seq, h, ev
	e.heapPush(slot)
	return Handle{slot: slot, gen: r.gen}
}

// live reports whether hd names a still-pending event.
func (e *oracle) live(hd Handle) bool {
	return hd.gen != 0 && int(hd.slot) < len(e.recs) &&
		e.recs[hd.slot].gen == hd.gen && e.recs[hd.slot].pos >= 0
}

// Cancel removes a pending event so it never fires. It reports whether
// the event was still pending; cancelling an already-fired, already-
// cancelled, or zero Handle is a safe no-op.
func (e *oracle) Cancel(hd Handle) bool {
	if !e.live(hd) {
		return false
	}
	e.heapRemove(int(e.recs[hd.slot].pos))
	e.release(hd.slot)
	return true
}

// release recycles a slot onto the free list, clearing references so
// the GC can reclaim payloads, and invalidates outstanding handles.
func (e *oracle) release(slot int32) {
	r := &e.recs[slot]
	r.h, r.ev, r.pos = nil, Event{}, -1
	r.gen++
	e.free = append(e.free, slot)
}

// Step runs the next event; it reports false when the queue is empty.
func (e *oracle) Step() bool {
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
// StopStride fired events and returns early once it loads true. A nil
// flag detaches cancellation. The flag is the only engine state ever
// touched from another goroutine, which is what makes an atomic
// sufficient.
func (e *oracle) SetStop(flag *atomic.Bool) { e.stop = flag }

// Run executes events until the queue drains or the time limit passes
// (limit 0 = no limit). If a stop flag is installed (SetStop), it is
// checked before the first event and then every StopStride events, so
// a cancelled run halts within one stride. Run returns the final
// simulation time.
func (e *oracle) Run(limit Time) Time {
	if e.stop != nil && e.stop.Load() {
		return e.now
	}
	check := e.fired + StopStride
	for len(e.heap) > 0 {
		if limit > 0 && e.recs[e.heap[0]].at > limit {
			e.now = max(e.now, limit)
			break
		}
		e.Step()
		if e.stop != nil && e.fired >= check {
			if e.stop.Load() {
				break
			}
			check = e.fired + StopStride
		}
	}
	return e.now
}

// --- indexed binary heap over oracleRecord slots --------------------------

func (e *oracle) less(a, b int32) bool {
	ra, rb := &e.recs[a], &e.recs[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

func (e *oracle) swap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	e.recs[h[i]].pos = int32(i)
	e.recs[h[j]].pos = int32(j)
}

func (e *oracle) heapPush(slot int32) {
	e.heap = append(e.heap, slot)
	i := len(e.heap) - 1
	e.recs[slot].pos = int32(i)
	e.siftUp(i)
}

// heapRemove deletes the element at heap index i, returning its slot.
func (e *oracle) heapRemove(i int) int32 {
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
func (e *oracle) fix(i int) {
	e.siftDown(i)
	e.siftUp(i)
}

func (e *oracle) siftUp(i int) {
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

func (e *oracle) siftDown(i int) {
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

// queue is the API FuzzEngineOracle drives on both engines.
type queue interface {
	Schedule(t Time, h Handler, ev Event) Handle
	Cancel(hd Handle) bool
	Step() bool
	Run(limit Time) Time
	Pending() int
	Now() Time
	Events() int64
}

// fuzzDriver replays one op stream on one engine and writes everything
// observable — fired (time, handler, A and Ref), Cancel and Step results,
// Run's return, Pending — to a transcript.
type fuzzDriver struct {
	q       queue
	hs      [2]*fuzzHandler
	handles []Handle
	out     []int64
	next    int64 // payload of the next scheduled event
}

// fuzzHandler logs each firing; an event with B > 0 schedules a child
// B-1 coarse ticks later, so handlers schedule from inside Run too.
type fuzzHandler struct {
	d  *fuzzDriver
	id int64
}

func (h *fuzzHandler) OnEvent(now Time, ev Event) {
	h.d.out = append(h.d.out, int64(now), h.id, ev.A, int64(ev.Ref))
	if ev.B > 0 {
		h.d.schedule(now+Time(ev.B-1)*100, int(h.id), ev.B-1)
	}
}

func newFuzzDriver(q queue) *fuzzDriver {
	d := &fuzzDriver{q: q}
	d.hs = [2]*fuzzHandler{{d: d, id: 0}, {d: d, id: 1}}
	return d
}

func (d *fuzzDriver) schedule(t Time, h int, chain int64) {
	d.next++
	d.handles = append(d.handles, d.q.Schedule(t, d.hs[h&1], Event{Ref: int32(d.next * 0x9e3779b1), A: d.next, B: chain}))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// coarse maps a byte to a time offset: mostly a few 100 ps steps, so
// equal-time ties are common, and with the top bit set a far-future
// key that lands in a high bucket.
func coarse(b byte) Time {
	if b&0x80 != 0 {
		return Time(b&7) << 40
	}
	return Time(b%8) * 100
}

// Fuzz ops, one byte each, followed by their argument bytes.
const (
	opSchedule    = iota // at now+coarse(b1), handler b2, child chain b3%3
	opCancel             // handles[b1 % (n+1)]; index n is the zero Handle
	opStep               //
	opRunLimit           // Run(now + coarse(b1) - 150), then Schedule at now
	opPending            //
	opBurst              // 1<<(b1%11) events at now+coarse(b2)
	opCancelStorm        // re-arm one far timer 1<<(b1%18) times, no pops
	numOps
)

func (d *fuzzDriver) replay(data []byte, check func()) {
	pos := 0
	arg := func() byte {
		if pos < len(data) {
			pos++
			return data[pos-1]
		}
		return 0
	}
	for pos < len(data) {
		switch arg() % numOps {
		case opSchedule:
			at := d.q.Now() + coarse(arg())
			h := int(arg())
			d.schedule(at, h, int64(arg()%3))
		case opCancel:
			k := int(arg()) % (len(d.handles) + 1)
			var hd Handle
			if k < len(d.handles) {
				hd = d.handles[k]
			}
			d.out = append(d.out, b2i(d.q.Cancel(hd)))
		case opStep:
			d.out = append(d.out, b2i(d.q.Step()))
		case opRunLimit:
			d.out = append(d.out, int64(d.q.Run(d.q.Now()+coarse(arg())-150)))
			d.schedule(d.q.Now(), 0, 0)
		case opPending:
			d.out = append(d.out, int64(d.q.Pending()))
		case opBurst:
			n := 1 << (arg() % 11)
			at := d.q.Now() + coarse(arg())
			for i := 0; i < n; i++ {
				d.schedule(at, i, 0)
			}
		case opCancelStorm:
			n := int(arg()) + 1
			if n == 256 {
				n = 1 << 17
			}
			d.schedule(d.q.Now()+3<<40, 0, 0)
			var cancelled int64
			for i := 0; i < n; i++ {
				last := len(d.handles) - 1
				cancelled += b2i(d.q.Cancel(d.handles[last]))
				d.handles = d.handles[:last]
				d.schedule(d.q.Now()+3<<40+Time(i), 1, 0)
			}
			d.out = append(d.out, cancelled)
		}
		d.out = append(d.out, int64(d.q.Pending()))
		check()
	}
	d.out = append(d.out, int64(d.q.Run(0)), d.q.Events(), int64(d.q.Pending()))
	check()
}

// checkStorage verifies the queue's bookkeeping against a walk of its
// buckets and lanes, and that it holds O(pending) entries: stale ones never
// outnumber pending ones, and the node pool never outgrows twice the
// peak pending count.
func checkStorage(t testing.TB, e *Engine, peak int) {
	n := len(e.b0) - e.head
	for b := range e.lists {
		k := 0
		for i := e.lists[b]; i != 0; i = e.nodes[i].next {
			if got := e.bucket(e.nodes[i].at); got != b {
				t.Fatalf("key %d in list %d, belongs in %d (last %d)", e.nodes[i].at, b, got, e.last)
			}
			k++
		}
		if (k > 0) != (e.mask&(1<<b) != 0) {
			t.Fatalf("list %d holds %d entries, mask bit %v", b, k, e.mask&(1<<b) != 0)
		}
		n += k
	}
	for b := range e.lanes {
		l, k := &e.lanes[b], 0
		for i := l.head; i != 0; i = e.nodes[i].next {
			if k == 0 && (e.nodes[i].at != l.at || e.nodes[i].seq != l.seq) {
				t.Fatalf("lane %d caches head key (%d, %d), holds (%d, %d)", b, l.at, l.seq, e.nodes[i].at, e.nodes[i].seq)
			}
			if e.nodes[i].next == 0 && i != l.tail {
				t.Fatalf("lane %d ends at node %d, tail %d", b, i, l.tail)
			}
			if next := e.nodes[i].next; next != 0 && e.nodes[next].at < e.nodes[i].at {
				t.Fatalf("lane %d out of order: %d before %d", b, e.nodes[i].at, e.nodes[next].at)
			}
			k++
		}
		if (k > 0) != (e.lmask&(1<<b) != 0) {
			t.Fatalf("lane %d holds %d entries, mask bit %v", b, k, e.lmask&(1<<b) != 0)
		}
		n += k
	}
	if n != e.pending+e.stale {
		t.Fatalf("queue holds %d entries, pending %d + stale %d", n, e.pending, e.stale)
	}
	if e.stale > e.pending {
		t.Fatalf("stale %d > pending %d after an operation", e.stale, e.pending)
	}
	if len(e.nodes) > 2*peak+2 {
		t.Fatalf("node pool %d for a peak of %d pending", len(e.nodes), peak)
	}
}

// FuzzEngineOracle drives the radix queue and the binary-heap oracle
// with the same operation stream and requires identical transcripts:
// fired (time, handler, A and Ref) order, Cancel and Step results,
// Run's return and Pending after every operation.
func FuzzEngineOracle(f *testing.F) {
	// Run(limit) peeks a key past the limit (last = 700 > now = 150),
	// then schedules at now, below last.
	f.Add([]byte{opSchedule, 7, 0, 0, opRunLimit, 3, opStep, opPending})
	// 1024 events at one timestamp, then a chained mix.
	f.Add([]byte{opBurst, 10, 2, opSchedule, 2, 1, 2, opCancel, 5, opStep, opRunLimit, 1})
	// A cancel storm of 131072 re-arms with no pops.
	f.Add([]byte{opSchedule, 4, 0, 0, opCancelStorm, 255, opPending, opStep})
	// Far keys, redistributions with stale entries, zero and stale handles.
	f.Add([]byte{opSchedule, 0x85, 0, 1, opSchedule, 0x81, 1, 2, opSchedule, 3, 0, 0, opCancel, 1,
		opCancel, 1, opCancel, 9, opStep, opRunLimit, 0x82, opSchedule, 0, 1, 0, opStep, opCancel, 0})
	// Recurring delays: the second 300 ps and the second 500 ps each
	// claim a lane; the first 300 ps, in the radix queue, ties with the
	// lane's head and fires first on seq.
	f.Add([]byte{opSchedule, 3, 0, 0, opSchedule, 3, 1, 0, opSchedule, 3, 0, 0, opSchedule, 5, 1, 0,
		opSchedule, 5, 0, 0, opStep, opSchedule, 3, 1, 0, opSchedule, 5, 0, 2, opStep, opStep, opStep, opPending})
	// Four delays fill the four lanes and a fifth stays in the radix
	// queue; Run(150) drains the 100 ps lane, the fifth delay then
	// takes it over, and once that drains 0 ps reuses it.
	f.Add([]byte{opSchedule, 1, 0, 0, opSchedule, 1, 1, 0, opSchedule, 2, 0, 0, opSchedule, 2, 1, 0,
		opSchedule, 3, 0, 0, opSchedule, 3, 1, 0, opSchedule, 4, 0, 0, opSchedule, 4, 1, 0,
		opSchedule, 5, 0, 0, opSchedule, 5, 1, 0, opRunLimit, 3, opStep, opSchedule, 5, 0, 0,
		opSchedule, 5, 1, 1, opPending, opRunLimit, 0})
	// A stale lane head dropped at the front, then a compaction across
	// lanes: two lanes and the radix queue hold cancelled entries when
	// stale passes pending.
	f.Add([]byte{opSchedule, 1, 0, 0, opSchedule, 1, 1, 0, opSchedule, 1, 0, 0, opSchedule, 2, 1, 0,
		opSchedule, 2, 0, 0, opSchedule, 2, 1, 0, opSchedule, 3, 0, 0, opSchedule, 3, 1, 0,
		opSchedule, 3, 0, 0, opCancel, 1, opStep, opStep, opCancel, 4, opCancel, 7, opCancel, 3,
		opCancel, 6, opPending, opStep, opStep, opPending})
	// Equal-time ties decided by seq: a radix entry before a lane head
	// at 100 ps, then at 300 ps a lane head between two radix entries.
	f.Add([]byte{opSchedule, 3, 0, 0, opSchedule, 3, 1, 0, opSchedule, 1, 0, 0, opSchedule, 1, 1, 0,
		opStep, opStep, opSchedule, 2, 0, 0, opStep, opStep, opStep, opPending})
	// Run(limit) stops with the next event in a lane: first with the
	// limit behind the clock (Run(250) at 300), then at 550 with the
	// lane's head at 600.
	f.Add([]byte{opSchedule, 3, 0, 0, opSchedule, 3, 1, 0, opStep, opSchedule, 3, 0, 0, opStep,
		opRunLimit, 1, opPending, opRunLimit, 4, opPending, opStep, opStep})
	// A long random stream.
	seed := make([]byte, 1000)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		want := newFuzzDriver(newOracle())
		want.replay(data, func() {})
		e := New()
		got := newFuzzDriver(e)
		peak := 0
		got.replay(data, func() {
			peak = max(peak, e.Pending())
			checkStorage(t, e, peak)
		})
		if i := firstDiff(got.out, want.out); i >= 0 {
			t.Fatalf("transcripts diverge at %d of %d/%d: got %v, oracle %v",
				i, len(got.out), len(want.out), window(got.out, i), window(want.out, i))
		}
	})
}

func firstDiff(a, b []int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func window(s []int64, i int) []int64 { return s[max(0, i-6):min(len(s), i+6)] }
