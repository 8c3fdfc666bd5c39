package engine

import (
	"sync/atomic"
	"testing"
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

func TestCallbacksAndClosures(t *testing.T) {
	e := New()
	var order []string
	cb := Callback{H: funcHandler{}, Ev: Event{Ptr: func() { order = append(order, "cb") }}}
	e.Post(5, cb)
	e.After(10, func() { order = append(order, "after") })
	e.Run(0)
	if len(order) != 2 || order[0] != "cb" || order[1] != "after" {
		t.Fatalf("order = %v", order)
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
// stop flag is raised, Run fires at most one stride of further events
// before returning.
func TestRunStopsWithinStride(t *testing.T) {
	const stride = 64
	e := New()
	var flag atomic.Bool
	h := &selfArming{e: e, flag: &flag, raise: 10}
	e.SetStop(&flag, stride)
	e.Schedule(0, h, Event{})
	e.Run(0)
	if e.Pending() == 0 {
		t.Fatal("queue drained; the workload should be infinite")
	}
	fired := e.Events() - h.raise
	if fired > stride {
		t.Errorf("fired %d events after the flag was raised, want <= %d", fired, stride)
	}
}

// TestRunPresetStopFiresNothing: a flag already raised stops Run
// before the first event.
func TestRunPresetStopFiresNothing(t *testing.T) {
	e := New()
	var flag atomic.Bool
	flag.Store(true)
	h := &selfArming{e: e, flag: &flag}
	e.SetStop(&flag, 0)
	e.Schedule(0, h, Event{})
	e.Run(0)
	if e.Events() != 0 {
		t.Errorf("fired %d events with a pre-raised stop flag", e.Events())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d after a stopped run, want the 1 scheduled event", e.Pending())
	}
}

// TestRunAfterStopDetached: detaching the flag (SetStop(nil, 0))
// restores plain Run semantics.
func TestRunAfterStopDetached(t *testing.T) {
	e := New()
	var flag atomic.Bool
	flag.Store(true)
	e.SetStop(&flag, 1)
	r := &recorder{}
	e.Schedule(5, r, Event{A: 1})
	e.Run(0)
	if len(r.got) != 0 {
		t.Fatal("event fired under a raised flag")
	}
	e.SetStop(nil, 0)
	e.Run(0)
	if len(r.got) != 1 {
		t.Fatalf("got %d events after detaching the stop flag, want 1", len(r.got))
	}
	if e.Pending() != 0 || e.Events() != 1 {
		t.Errorf("pending = %d, events = %d after a drained run, want 0 and 1", e.Pending(), e.Events())
	}
}
