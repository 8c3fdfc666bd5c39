package telemetry

import (
	"testing"
	"time"
)

// TestTransitionRecordSemantics pins the sentinel arithmetic: rejected
// transitions lose nothing, unclosed windows report -1, and closed ones
// difference the drop snapshots.
func TestTransitionRecordSemantics(t *testing.T) {
	rejected := TransitionRecord{Rejected: true, RestoreAt: -1, FirstDeliveryAfter: -1}
	if rejected.PacketsLost() != 0 || rejected.Reconvergence() != -1 {
		t.Fatalf("rejected: lost=%d reconv=%d", rejected.PacketsLost(), rejected.Reconvergence())
	}
	open := TransitionRecord{DrainAt: 100, RestoreAt: -1, FirstDeliveryAfter: -1, LostBefore: 3}
	if open.PacketsLost() != -1 || open.Reconvergence() != -1 {
		t.Fatalf("open window: lost=%d reconv=%d", open.PacketsLost(), open.Reconvergence())
	}
	closed := TransitionRecord{
		DrainAt: 100, RestoreAt: 300, FirstDeliveryAfter: 450,
		LostBefore: 3, LostAfter: 10, PatchChurn: 4, RestoreChurn: 6,
	}
	if closed.PacketsLost() != 7 || closed.Reconvergence() != 350 || closed.TotalChurn() != 10 {
		t.Fatalf("closed window: lost=%d reconv=%d churn=%d",
			closed.PacketsLost(), closed.Reconvergence(), closed.TotalChurn())
	}
}

// TestTrackerTransitionLifecycle drives the tracker's stage calls
// against a live fabric and checks the delivery hook detaches once the
// reconvergence capture lands.
func TestTrackerTransitionLifecycle(t *testing.T) {
	net, g := lineNet(t)
	tr := NewRecoveryTracker(net)
	i := tr.TransitionDrain(0, "line->line @0us", 2)
	tr.TransitionPatch(i, 10, 4)
	tr.TransitionCommit(i, 20, 40, time.Millisecond, 18000)
	tr.TransitionRestore(i, 30, 4)
	if net.OnDeliver == nil {
		t.Fatal("restore did not arm delivery capture")
	}
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[len(hosts)-1], 1, 1<<10)
	net.Sim.Run(0)
	rep := tr.ReconfigReport(0)
	e := &rep.Transitions[0]
	if !e.Committed || e.FirstDeliveryAfter < e.RestoreAt || e.Reconvergence() < 0 {
		t.Fatalf("lifecycle record = %+v", e)
	}
	if net.OnDeliver != nil {
		t.Fatal("delivery hook still attached after capture")
	}
}
