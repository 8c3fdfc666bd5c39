package telemetry

import (
	"testing"
	"time"
)

// TestTransitionRecordSemantics pins the sentinel arithmetic: rejected
// transitions and unclosed windows report no reconvergence, and closed
// ones measure drain → first delivery and sum both churns.
func TestTransitionRecordSemantics(t *testing.T) {
	rejected := TransitionRecord{Rejected: true, RestoreAt: -1, FirstDeliveryAfter: -1}
	if rejected.Reconvergence() != -1 {
		t.Fatalf("rejected: reconv=%d", rejected.Reconvergence())
	}
	open := TransitionRecord{DrainAt: 100, RestoreAt: -1, FirstDeliveryAfter: -1, LostBefore: 3}
	if open.Reconvergence() != -1 {
		t.Fatalf("open window: reconv=%d", open.Reconvergence())
	}
	closed := TransitionRecord{
		DrainAt: 100, RestoreAt: 300, FirstDeliveryAfter: 450,
		LostBefore: 3, LostAfter: 10, PatchChurn: 4, RestoreChurn: 6,
	}
	if closed.Reconvergence() != 350 || closed.TotalChurn() != 10 {
		t.Fatalf("closed window: reconv=%d churn=%d", closed.Reconvergence(), closed.TotalChurn())
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
