package telemetry

// Recovery metrics for fault runs: per fault event, when the
// controller's repair went live, when the first payload delivery after
// that repair landed (the reconvergence signal), and how many rules
// the repair churned; plus the run-wide packets-lost count.
//
// A RecoveryTracker is wired by the core run loop: it observes fault
// events (timestamps), repairs (via the rerouter's OnRepair hook), and
// deliveries (via netsim.Network.OnDeliver, installed only while a
// repair awaits its first delivery, so the hook costs nothing once the
// fabric has reconverged). Everything runs inside the engine thread of
// one simulation; a tracker is per-run and needs no locking.
//
// Reconfiguration runs do not use a tracker: each transition's record,
// its own first-delivery capture included, is its reconfig.Stage.

import (
	"fmt"
	"io"

	"repro/internal/netsim"
)

// RecoveryEvent is the lifecycle of one fault.
type RecoveryEvent struct {
	// Desc names the fault (e.g. "link-down e12 @2000us").
	Desc string
	// FaultAt is when the fault took effect.
	FaultAt netsim.Time
	// RepairAt is when the repaired routes went live (-1 if the run
	// ended first or repair is disabled).
	RepairAt netsim.Time
	// FirstDeliveryAfter is the first payload delivery at or after
	// RepairAt (-1 if none landed) — fault→delivery is the
	// reconvergence time.
	FirstDeliveryAfter netsim.Time
	// RulesChanged is the repair's route churn.
	RulesChanged int
}

// Reconvergence returns the fault→first-repaired-delivery time, or -1
// when the fabric never delivered after the repair.
func (e *RecoveryEvent) Reconvergence() netsim.Time {
	if e.RepairAt < 0 || e.FirstDeliveryAfter < 0 {
		return -1
	}
	return e.FirstDeliveryAfter - e.FaultAt
}

// Recovery is the fault-run summary.
type Recovery struct {
	Events []RecoveryEvent
	// PacketsLost counts packets dropped by dead elements
	// (netsim.Network.FaultDrops).
	PacketsLost int64
	// Incomplete counts workload flows that never finished.
	Incomplete int
}

// TotalChurn sums route churn over all repairs.
func (r *Recovery) TotalChurn() int {
	n := 0
	for _, e := range r.Events {
		n += e.RulesChanged
	}
	return n
}

// MeanReconvergence averages the fault→first-delivery times over the
// faults that reconverged, also reporting how many did.
func (r *Recovery) MeanReconvergence() (mean netsim.Time, n int) {
	var sum netsim.Time
	for i := range r.Events {
		if d := r.Events[i].Reconvergence(); d >= 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return -1, 0
	}
	return sum / netsim.Time(n), n
}

// Format prints the per-fault recovery table.
func (r *Recovery) Format(w io.Writer) {
	fmt.Fprintf(w, "%-24s %10s %10s %10s %6s\n", "fault", "at", "repair", "reconv", "churn")
	for i := range r.Events {
		e := &r.Events[i]
		repair, reconv := "-", "-"
		if e.RepairAt >= 0 {
			repair = fmt.Sprintf("%.0fus", float64(e.RepairAt)/float64(netsim.Microsecond))
		}
		if d := e.Reconvergence(); d >= 0 {
			reconv = fmt.Sprintf("%.0fus", float64(d)/float64(netsim.Microsecond))
		}
		fmt.Fprintf(w, "%-24s %9.0fus %10s %10s %6d\n",
			e.Desc, float64(e.FaultAt)/float64(netsim.Microsecond), repair, reconv, e.RulesChanged)
	}
	fmt.Fprintf(w, "packets lost to faults: %d, flows incomplete: %d\n", r.PacketsLost, r.Incomplete)
}

// RecoveryTracker accumulates recovery metrics during one fault run.
type RecoveryTracker struct {
	rec     Recovery
	net     *netsim.Network
	pending int // repairs awaiting their first delivery
}

// NewRecoveryTracker builds a tracker for one network.
func NewRecoveryTracker(net *netsim.Network) *RecoveryTracker {
	return &RecoveryTracker{net: net}
}

// Fault records a fault event taking effect now.
func (t *RecoveryTracker) Fault(now netsim.Time, desc string) {
	t.rec.Events = append(t.rec.Events, RecoveryEvent{
		Desc: desc, FaultAt: now, RepairAt: -1, FirstDeliveryAfter: -1,
	})
}

// Repaired marks the earliest not-yet-repaired fault as repaired now
// (repairs execute in fault order) and arms first-delivery capture.
func (t *RecoveryTracker) Repaired(now netsim.Time, rulesChanged int) {
	for i := range t.rec.Events {
		e := &t.rec.Events[i]
		if e.RepairAt < 0 {
			e.RepairAt = now
			e.RulesChanged = rulesChanged
			t.pending++
			break
		}
	}
	if t.net.OnDeliver == nil {
		t.net.OnDeliver = t.onDeliver
	}
}

// onDeliver stamps every repaired-but-unconfirmed fault whose repair
// time has passed, then detaches once nothing is pending.
func (t *RecoveryTracker) onDeliver(now netsim.Time) {
	for i := range t.rec.Events {
		e := &t.rec.Events[i]
		if e.RepairAt >= 0 && e.FirstDeliveryAfter < 0 && now >= e.RepairAt {
			e.FirstDeliveryAfter = now
			t.pending--
		}
	}
	if t.pending == 0 {
		t.net.OnDeliver = nil
	}
}

// Report finalises and returns the recovery summary (lost-packet count
// read from the network, incomplete flow count supplied by the run
// loop).
func (t *RecoveryTracker) Report(incomplete int) *Recovery {
	t.rec.PacketsLost = t.net.FaultDrops
	t.rec.Incomplete = incomplete
	return &t.rec
}
