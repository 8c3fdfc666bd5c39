package telemetry

// Reconfiguration telemetry: the graceful-degradation record of one
// drain→transition→reconverge protocol run. The core run loop wires a
// RecoveryTracker to the reconfigurer's stage hooks; the tracker stamps
// each stage boundary, counts the packets lost inside the disruption
// window, and measures reconvergence exactly as it does for faults —
// via netsim.Network.OnDeliver, installed only while a restored
// transition awaits its first delivery.

import (
	"time"

	"repro/internal/netsim"
)

// TransitionRecord is the lifecycle of one topology transition.
type TransitionRecord struct {
	// Desc names the transition (e.g. "fat-tree-4->dragonfly @500us").
	Desc string
	// Rejected marks a transition refused before drain (target does not
	// project); no other stage fields are stamped.
	Rejected bool
	// Committed reports whether the switchover succeeded; false with a
	// non-empty Reason after a rollback.
	Committed bool
	// Reason carries the reject or rollback cause ("" when committed).
	Reason string
	// DrainAt is when the drain stage took the links down.
	DrainAt netsim.Time
	// DrainedLinks is how many logical links were drained.
	DrainedLinks int
	// PatchAt is when the degraded routes went live (-1 if the patch
	// was disabled or nothing was drained).
	PatchAt netsim.Time
	// PatchChurn is the degraded swap's rule churn.
	PatchChurn int
	// DecisionAt is when the commit or rollback executed (-1 if the run
	// ended inside the drain window).
	DecisionAt netsim.Time
	// RestoreAt is when the drained links came back up — at the end of
	// the install window (committed) or at the decision (rolled back);
	// -1 if the run ended first.
	RestoreAt netsim.Time
	// RestoreChurn is the restore swap's rule churn.
	RestoreChurn int
	// FirstDeliveryAfter is the first payload delivery at or after
	// RestoreAt (-1 if none landed); drain→delivery is the transition's
	// reconvergence time.
	FirstDeliveryAfter netsim.Time
	// LostBefore/LostAfter snapshot the fabric's fault-drop counter at
	// drain and at restore; the difference is the packets the
	// transition cost.
	LostBefore, LostAfter int64
	// Entries, ReconfigTime, HardwareCost are the committed target's
	// flow-table entry count and costmodel downtime/price columns.
	Entries      int
	ReconfigTime time.Duration
	HardwareCost float64
}

// Reconvergence returns the drain→first-restored-delivery time, or -1
// when the fabric never delivered after the restore.
func (e *TransitionRecord) Reconvergence() netsim.Time {
	if e.RestoreAt < 0 || e.FirstDeliveryAfter < 0 {
		return -1
	}
	return e.FirstDeliveryAfter - e.DrainAt
}

// TotalChurn is the transition's full rule churn: the degraded patch
// plus the restore swap.
func (e *TransitionRecord) TotalChurn() int { return e.PatchChurn + e.RestoreChurn }

// ReconfigReport is the reconfiguration-run summary.
type ReconfigReport struct {
	Transitions []TransitionRecord
	// PacketsLost counts all packets dropped by drained (or otherwise
	// dead) elements over the whole run.
	PacketsLost int64
	// Incomplete counts workload flows that never finished.
	Incomplete int
}

// TransitionDrain records a drain stage taking effect now and returns
// the record index the later stage calls key on.
func (t *RecoveryTracker) TransitionDrain(now netsim.Time, desc string, drainedLinks int) int {
	t.trans = append(t.trans, TransitionRecord{
		Desc: desc, DrainAt: now, DrainedLinks: drainedLinks,
		PatchAt: -1, DecisionAt: -1, RestoreAt: -1, FirstDeliveryAfter: -1,
		LostBefore: t.net.FaultDrops,
	})
	return len(t.trans) - 1
}

// TransitionReject records a transition refused before drain.
func (t *RecoveryTracker) TransitionReject(now netsim.Time, desc, reason string) {
	t.trans = append(t.trans, TransitionRecord{
		Desc: desc, Rejected: true, Reason: reason,
		DrainAt: now, PatchAt: -1, DecisionAt: -1, RestoreAt: -1, FirstDeliveryAfter: -1,
	})
}

// TransitionPatch stamps the degraded routes going live.
func (t *RecoveryTracker) TransitionPatch(i int, now netsim.Time, churn int) {
	t.trans[i].PatchAt = now
	t.trans[i].PatchChurn = churn
}

// TransitionCommit stamps a successful switchover and its cost columns.
func (t *RecoveryTracker) TransitionCommit(i int, now netsim.Time, entries int, reconfig time.Duration, hwCost float64) {
	e := &t.trans[i]
	e.DecisionAt = now
	e.Committed = true
	e.Entries, e.ReconfigTime, e.HardwareCost = entries, reconfig, hwCost
}

// TransitionRollback stamps an aborted switchover.
func (t *RecoveryTracker) TransitionRollback(i int, now netsim.Time, reason string) {
	e := &t.trans[i]
	e.DecisionAt = now
	e.Committed = false
	e.Reason = reason
}

// TransitionRestore stamps the drained links coming back up and arms
// first-delivery capture for the reconvergence measurement.
func (t *RecoveryTracker) TransitionRestore(i int, now netsim.Time, churn int) {
	e := &t.trans[i]
	e.RestoreAt = now
	e.RestoreChurn = churn
	e.LostAfter = t.net.FaultDrops
	t.transPending++
	if t.net.OnDeliver == nil {
		t.net.OnDeliver = t.onDeliver
	}
}

// ReconfigReport finalises and returns the reconfiguration summary.
func (t *RecoveryTracker) ReconfigReport(incomplete int) *ReconfigReport {
	return &ReconfigReport{
		Transitions: t.trans,
		PacketsLost: t.net.FaultDrops,
		Incomplete:  incomplete,
	}
}
