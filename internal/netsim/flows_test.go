package netsim

import "testing"

// lineNet builds a small line fabric for flow tests.
func lineNet(t *testing.T, n int) (*Network, []int) {
	t.Helper()
	net, g := buildLine(t, n, 1, DefaultConfig())
	return net, g.Hosts()
}

// FlowApp must inject at the scheduled times, complete every flow, and
// report the last completion as ACT.
func TestFlowAppBasic(t *testing.T) {
	net, hosts := lineNet(t, 3)
	flows := []Flow{
		{Src: 0, Dst: 1, Bytes: 4 * 1024, Start: 0, Tag: 0},
		{Src: 1, Dst: 2, Bytes: 8 * 1024, Start: 50 * Microsecond, Tag: 1},
		{Src: 2, Dst: 0, Bytes: 2 * 1024, Start: 10 * Microsecond, Tag: 2},
	}
	var done Time
	app := NewFlowApp(net, hosts[:3], flows, func(last Time) { done = last })
	if app.ACT() >= 0 {
		t.Fatal("ACT complete before Start")
	}
	app.Start()
	net.Sim.Run(0)
	if app.Completed() != len(flows) {
		t.Fatalf("completed %d/%d", app.Completed(), len(flows))
	}
	var last Time
	for i := range flows {
		f := &flows[i]
		if !f.Completed {
			t.Fatalf("flow %d incomplete", i)
		}
		if f.End <= f.Start {
			t.Fatalf("flow %d: end %v <= start %v", i, f.End, f.Start)
		}
		if f.End > last {
			last = f.End
		}
	}
	if app.ACT() != last || done != last {
		t.Fatalf("ACT %v, onDone %v, want %v", app.ACT(), done, last)
	}
	// The delayed flow cannot complete before its injection time.
	if flows[1].End < 50*Microsecond {
		t.Fatalf("flow 1 completed at %v, before its start", flows[1].End)
	}
}

// An empty schedule is trivially complete at time zero.
func TestFlowAppEmpty(t *testing.T) {
	net, hosts := lineNet(t, 2)
	app := NewFlowApp(net, hosts[:2], nil, nil)
	app.Start()
	net.Sim.Run(0)
	if app.ACT() != 0 {
		t.Fatalf("empty schedule ACT %v", app.ACT())
	}
}

// Out-of-order start times must be injected in time order.
func TestFlowAppOrdering(t *testing.T) {
	net, hosts := lineNet(t, 2)
	flows := []Flow{
		{Src: 0, Dst: 1, Bytes: 1024, Start: 30 * Microsecond, Tag: 0},
		{Src: 0, Dst: 1, Bytes: 1024, Start: 10 * Microsecond, Tag: 1},
		{Src: 0, Dst: 1, Bytes: 1024, Start: 20 * Microsecond, Tag: 2},
	}
	app := NewFlowApp(net, hosts[:2], flows, nil)
	app.Start()
	net.Sim.Run(0)
	if app.ACT() < 0 {
		t.Fatal("did not complete")
	}
	if !(flows[1].End < flows[2].End && flows[2].End < flows[0].End) {
		t.Fatalf("completions out of order: %v %v %v", flows[0].End, flows[1].End, flows[2].End)
	}
}

// Duplicate (src, dst, tag) keys would be indistinguishable at the
// receiver's mailbox; construction must reject them.
func TestFlowAppRejectsDuplicateMatchKey(t *testing.T) {
	net, hosts := lineNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate (src, dst, tag) accepted")
		}
	}()
	NewFlowApp(net, hosts[:2], []Flow{
		{Src: 0, Dst: 1, Bytes: 1, Tag: 7},
		{Src: 0, Dst: 1, Bytes: 2, Tag: 7},
	}, nil)
}

// DuplicateFlow names the first flow, in schedule order, that repeats an
// earlier flow's (src, dst, tag), and the first flow with that key.
func TestDuplicateFlow(t *testing.T) {
	for _, c := range []struct {
		flows      []Flow
		dup, first int
	}{
		{nil, -1, -1},
		{[]Flow{{Src: 0, Dst: 1, Tag: 7}, {Src: 1, Dst: 0, Tag: 7}, {Src: 0, Dst: 1, Tag: 8}}, -1, -1},
		{[]Flow{{Src: 0, Dst: 1, Tag: 7}, {Src: 0, Dst: 1, Tag: 7}}, 1, 0},
		// Flow 3 repeats flow 1 before flow 4 repeats flow 0.
		{[]Flow{{Src: 2, Dst: 3}, {Src: 0, Dst: 1, Tag: 5}, {Src: 4, Dst: 5}, {Src: 0, Dst: 1, Tag: 5}, {Src: 2, Dst: 3}, {Src: 2, Dst: 3}}, 3, 1},
		// Flow 2 is the first repeat of flow 0; flow 3 repeats it too.
		{[]Flow{{Src: 2, Dst: 3}, {Src: 4, Dst: 5}, {Src: 2, Dst: 3}, {Src: 2, Dst: 3}}, 2, 0},
	} {
		if dup, first := DuplicateFlow(c.flows); dup != c.dup || first != c.first {
			t.Errorf("DuplicateFlow(%v) = %d, %d; want %d, %d", c.flows, dup, first, c.dup, c.first)
		}
	}
}
