package engine

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// recorder collects fired event identifiers.
type recorder struct{ got []int64 }

func (r *recorder) OnEvent(_ Time, ev Event) { r.got = append(r.got, ev.A) }

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(30, r, Event{A: 3})
	e.Schedule(10, r, Event{A: 1})
	e.Schedule(20, r, Event{A: 2})
	e.Schedule(10, r, Event{A: 11}) // same time: scheduling order
	e.Schedule(10, r, Event{A: 12})
	e.Run(0)
	want := []int64{1, 11, 12, 2, 3}
	if len(r.got) != len(want) {
		t.Fatalf("fired %v, want %v", r.got, want)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("order = %v, want %v", r.got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("final time = %d, want 30", e.Now())
	}
	if e.Events() != 5 {
		t.Errorf("events = %d, want 5", e.Events())
	}
}

func TestCancelledEventsNeverFire(t *testing.T) {
	e := New()
	r := &recorder{}
	h1 := e.Schedule(10, r, Event{A: 1})
	e.Schedule(20, r, Event{A: 2})
	h3 := e.Schedule(30, r, Event{A: 3})
	if !e.Cancel(h1) {
		t.Fatal("cancel of pending event returned false")
	}
	if e.Cancel(h1) {
		t.Error("double cancel returned true")
	}
	e.Run(0)
	if len(r.got) != 2 || r.got[0] != 2 || r.got[1] != 3 {
		t.Fatalf("fired %v, want [2 3]", r.got)
	}
	// Cancelling after firing is a safe no-op.
	if e.Cancel(h3) {
		t.Error("cancel of fired event returned true")
	}
	// The zero Handle is never live.
	if e.Cancel(Handle{}) {
		t.Error("cancel of zero Handle returned true")
	}
}

func TestCancelHandleInvalidatedBySlotReuse(t *testing.T) {
	e := New()
	r := &recorder{}
	h1 := e.Schedule(10, r, Event{A: 1})
	e.Cancel(h1)
	// The slot is recycled for a new event; the old handle must not be
	// able to cancel it.
	e.Schedule(20, r, Event{A: 2})
	if e.Cancel(h1) {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	e.Run(0)
	if len(r.got) != 1 || r.got[0] != 2 {
		t.Fatalf("fired %v, want [2]", r.got)
	}
}

func TestRunLimitStopsBeforeFutureEvents(t *testing.T) {
	e := New()
	fired := false
	e.At(100, func() { fired = true })
	e.Run(50)
	if fired {
		t.Error("event beyond limit fired")
	}
	if e.Now() != 50 {
		t.Errorf("now = %d, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

// TestRunLimitInPastKeepsClock: a Run whose limit is already behind
// the clock fires nothing and leaves the clock where it was.
func TestRunLimitInPastKeepsClock(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(100, r, Event{A: 1})
	e.Schedule(200, r, Event{A: 2})
	e.Run(150)
	if got := e.Run(50); got != 150 || e.Now() != 150 {
		t.Fatalf("Run(50) at now 150 returned %d, now %d; want 150", got, e.Now())
	}
	e.Run(0)
	if len(r.got) != 2 || e.Now() != 200 {
		t.Fatalf("fired %v, now %d; want [1 2] and 200", r.got, e.Now())
	}
}

// refRecorder collects fired events' Ref.
type refRecorder struct{ got []int32 }

func (r *refRecorder) OnEvent(_ Time, ev Event) { r.got = append(r.got, ev.Ref) }

// TestCallbacksAndClosures: a posted Callback delivers its Ref, and
// closures fire in time order, including one that a closure schedules
// into the slot it has just vacated.
func TestCallbacksAndClosures(t *testing.T) {
	e := New()
	var order []string
	r := &refRecorder{}
	e.Post(5, Callback{H: r, Ev: Event{Ref: 7}})
	e.After(10, func() {
		order = append(order, "after")
		e.After(1, func() { order = append(order, "nested") })
	})
	e.At(20, func() { order = append(order, "at") })
	e.Run(0)
	if len(r.got) != 1 || r.got[0] != 7 {
		t.Fatalf("callback got refs %v, want [7]", r.got)
	}
	if len(order) != 3 || order[0] != "after" || order[1] != "nested" || order[2] != "at" {
		t.Fatalf("order = %v", order)
	}
	if len(e.fns.fns) != 2 || len(e.fns.free) != 2 {
		t.Errorf("closure table holds %d slots, %d free; want 2 and 2", len(e.fns.fns), len(e.fns.free))
	}
}

// TestRecordSize pins the slab layout: an Event is three words and no
// pointer, and a record (Handler, Event, generation) fits 48 bytes.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 24 {
		t.Errorf("Event is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(record{}); n > 48 {
		t.Errorf("record is %d bytes, want <= 48", n)
	}
}

// nopHandler reschedules itself n times — the steady-state loop shape.
type nopHandler struct{ e *Engine }

func (h *nopHandler) OnEvent(now Time, ev Event) {
	if ev.A > 0 {
		h.e.ScheduleAfter(10, h, Event{A: ev.A - 1})
	}
}

// TestSteadyStateLoopAllocatesNothing is the zero-allocation guard:
// once the slab and heap have grown to the working set, scheduling,
// firing, cancelling, and rescheduling allocate nothing.
func TestSteadyStateLoopAllocatesNothing(t *testing.T) {
	e := New()
	h := &nopHandler{e: e}
	// Warm the slab/heap/free list.
	e.Schedule(0, h, Event{A: 64})
	e.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now(), h, Event{A: 256})
		e.Run(0)
		hd := e.ScheduleAfter(5, h, Event{})
		e.Cancel(hd)
	})
	if allocs > 0 {
		t.Errorf("steady-state loop allocates %.1f allocs/run, want 0", allocs)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	e := New()
	h := &nopHandler{e: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now(), h, Event{A: 32})
		e.Run(0)
	}
}

func BenchmarkCancel(b *testing.B) {
	e := New()
	h := &nopHandler{e: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hd := e.ScheduleAfter(1000, h, Event{})
		e.Cancel(hd)
	}
}

// holdHandler re-schedules itself each time it fires, the hold model
// of a pending-event set: with recurring set, one of four fixed delays
// shaped like a packet fabric's (serialisation of a full frame, the
// wire up to the header, a crossbar, a PFC frame); otherwise a delay
// drawn uniformly from [0, 2 µs), which no lane serves.
type holdHandler struct {
	e         *Engine
	rng       uint64
	recurring bool
}

var fabricDelays = [4]Time{3330 * Nanosecond, 204 * Nanosecond, 452 * Nanosecond, 600 * Nanosecond}

func (h *holdHandler) delay() Time {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if h.recurring {
		return fabricDelays[h.rng>>62]
	}
	return Time(h.rng % 2000000)
}

func (h *holdHandler) OnEvent(now Time, ev Event) { h.e.Schedule(now+h.delay(), h, ev) }

// BenchmarkHold times one Step — fire an event, schedule its
// successor — with 285 events pending, pkt-fabric's mean queue depth,
// for recurring delays (the lanes) and random ones (the radix queue).
func BenchmarkHold(b *testing.B) {
	const depth = 285
	for _, recurring := range []bool{true, false} {
		name := "random"
		if recurring {
			name = "recurring"
		}
		b.Run(name, func(b *testing.B) {
			e := New()
			h := &holdHandler{e: e, rng: 0x9e3779b97f4a7c15, recurring: recurring}
			for range depth {
				e.Schedule(h.delay(), h, Event{})
			}
			for range 16 * depth {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				e.Step()
			}
		})
	}
}

// selfArming reschedules itself forever — the adversarial workload for
// cancellation: without a stop flag, Run(0) would never return.
type selfArming struct {
	e     *Engine
	flag  *atomic.Bool
	raise int64 // raise the flag after this many fired events
}

func (s *selfArming) OnEvent(now Time, ev Event) {
	if s.raise > 0 && s.e.Events() == s.raise {
		s.flag.Store(true)
	}
	s.e.Schedule(now+1, s, Event{})
}

// TestRunStopsWithinStride pins the cancellation contract: once the
// stop flag is raised, Run fires at most StopStride further events
// before returning.
func TestRunStopsWithinStride(t *testing.T) {
	e := New()
	var flag atomic.Bool
	h := &selfArming{e: e, flag: &flag, raise: 10}
	e.SetStop(&flag)
	e.Schedule(0, h, Event{})
	e.Run(0)
	if e.Pending() == 0 {
		t.Fatal("queue drained; the workload should be infinite")
	}
	fired := e.Events() - h.raise
	if fired > StopStride {
		t.Errorf("fired %d events after the flag was raised, want <= %d", fired, StopStride)
	}
}

// TestRunPresetStopFiresNothing: a flag already raised stops Run
// before the first event.
func TestRunPresetStopFiresNothing(t *testing.T) {
	e := New()
	var flag atomic.Bool
	flag.Store(true)
	h := &selfArming{e: e, flag: &flag}
	e.SetStop(&flag)
	e.Schedule(0, h, Event{})
	e.Run(0)
	if e.Events() != 0 {
		t.Errorf("fired %d events with a pre-raised stop flag", e.Events())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d after a stopped run, want the 1 scheduled event", e.Pending())
	}
}

// TestRunAfterStopDetached: detaching the flag (SetStop(nil))
// restores plain Run semantics.
func TestRunAfterStopDetached(t *testing.T) {
	e := New()
	var flag atomic.Bool
	flag.Store(true)
	e.SetStop(&flag)
	r := &recorder{}
	e.Schedule(5, r, Event{A: 1})
	e.Run(0)
	if len(r.got) != 0 {
		t.Fatal("event fired under a raised flag")
	}
	e.SetStop(nil)
	e.Run(0)
	if len(r.got) != 1 {
		t.Fatalf("got %d events after detaching the stop flag, want 1", len(r.got))
	}
	if e.Pending() != 0 || e.Events() != 1 {
		t.Errorf("pending = %d, events = %d after a drained run, want 0 and 1", e.Pending(), e.Events())
	}
}
