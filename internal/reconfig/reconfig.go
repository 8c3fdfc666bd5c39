// Package reconfig executes live topology reconfiguration under
// traffic: a Spec of timed transitions (fat-tree → dragonfly, fabric
// growth, oversubscription changes) is expanded into a deterministic
// stage schedule and each transition runs as a staged robustness
// protocol against a running netsim fabric —
//
//  1. drain: the logical links of the running topology whose physical
//     cables the incoming target will claim are marked down
//     (netsim.Network.SetLinkDown — in-flight packets account as fault
//     drops with PFC unwind), and after the spec's patch latency the
//     controller swaps degraded routes around the drained set
//     (routing.Routes.Reroute, invalidating the memoized FIB);
//  2. transition: the run's controller (a run-private
//     controller.Controller over the testbed's cabling) swaps the
//     current deployment for the target's with controller.Reconfigure —
//     projection, routes, flow tables and the costmodel's downtime —
//     and the new plan must pass Plan.Check plus the transition's
//     optional Validate hook; any failure aborts to rollback: the
//     controller is reconfigured back to the previous deployment with
//     its own routes (Reconfigure already does so itself when the
//     target cannot be deployed), drained links restored, and the
//     original rules swapped back, so the run completes on the old
//     topology;
//  3. reconverge: after the install window the drained links come back
//     up and the full original rules are restored; the stage records
//     the packets lost since drain, its rule churn, and the first
//     payload delivery after the restore (reconvergence time).
//
// The Stage is the whole record of a transition: the core run loop
// returns the reconfigurer's stages as the run's result.
//
// The evaluation fabric keeps executing the running topology's workload
// throughout — the measured quantity is the *disruption* a transition
// inflicts on traffic, while the target deployment is fully modelled at
// the control plane (allocation, plan check, flow-table compile, cost
// columns). Everything is deterministic: stage times come from the
// spec, drained sets from the deterministic projection, and all
// schedules are byte-identical for equal (spec, topology, cabling)
// inputs — the property the golden harness and the worker-count
// invariance tests pin.
package reconfig

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/costmodel"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Stage-window defaults, applied when a Transition leaves the
// corresponding field zero.
const (
	// DefaultDrain is the drain window: drain start → transition commit.
	DefaultDrain = 500 * netsim.Microsecond
	// DefaultInstall is the install window: commit → links restored.
	DefaultInstall = 500 * netsim.Microsecond
	// DefaultPatchLatency is the controller delay between drain start
	// and the degraded routes going live.
	DefaultPatchLatency = 125 * netsim.Microsecond
)

// Transition is one timed topology change.
type Transition struct {
	// At is the absolute simulated time the drain stage starts.
	At netsim.Time
	// Target is the topology being transitioned to.
	Target *topology.Graph
	// Drain is the drain-window length (0 = DefaultDrain): the time
	// between links going down and the transition commit.
	Drain netsim.Time
	// Install is the install-window length (0 = DefaultInstall): the
	// time between a successful commit and the drained links coming
	// back up (reconvergence starts there).
	Install netsim.Time
	// Validate, when set, is an extra admission check on the projected
	// target plan, run after Plan.Check at commit time. Returning an
	// error aborts the transition to rollback — the fault-injection
	// hook the rollback tests and scenario sets use.
	Validate func(*projection.Plan) error
}

// Spec describes one reconfiguration workload. The zero Spec is valid
// and empty (no transitions); equal specs expand to identical stage
// schedules.
type Spec struct {
	// Transitions execute in order; their stage windows must not
	// overlap.
	Transitions []Transition
	// PatchLatency is the drain→degraded-routes delay (0 =
	// DefaultPatchLatency). Negative disables the degraded patch:
	// traffic toward drained links keeps dropping until reconverge.
	// A latency at or beyond the drain window also disables it (the
	// degraded rules would go live after the commit already decided).
	PatchLatency netsim.Time
}

// Patch resolves the spec's effective patch latency (< 0 = disabled).
func (s *Spec) Patch() netsim.Time {
	if s.PatchLatency == 0 {
		return DefaultPatchLatency
	}
	return s.PatchLatency
}

// Stage outcomes (Stage.Outcome prefixes; the full string carries the
// reject/rollback reason after ": ").
const (
	OutcomeCommitted  = "committed"
	OutcomeRolledBack = "rolled-back"
	OutcomeRejected   = "rejected"
)

// Stage is one transition resolved against a topology and cabling —
// absolute stage times and the drained link set — and, after the run,
// its whole record: outcome, churn, losses, reconvergence and the
// committed target's cost columns.
type Stage struct {
	Transition
	// Desc names the transition (e.g. "fat-tree-4->dragonfly @500us").
	Desc string
	// DrainAt/CommitAt/RestoreAt are the resolved stage boundaries. A
	// rollback restores at the decision, so it moves RestoreAt to
	// CommitAt.
	DrainAt, CommitAt, RestoreAt netsim.Time
	// PatchAt is when the degraded routes go live (-1 = patch disabled).
	PatchAt netsim.Time
	// Drained lists the running topology's logical edge IDs taken down
	// for this transition (ascending): the edges whose physical cables
	// the target's projection claims.
	Drained []int
	// Outcome is "" before the stage decides, else OutcomeCommitted, or
	// OutcomeRejected/OutcomeRolledBack followed by ": <reason>". A
	// stage whose target cannot be projected at all is rejected before
	// drain and never touches the fabric.
	Outcome string
	// PatchChurn and RestoreChurn are the rule churn of the degraded
	// swap and of the restore swap.
	PatchChurn, RestoreChurn int
	// Lost counts the packets the fabric dropped between drain and
	// restore (the netsim.Network.FaultDrops delta).
	Lost int64
	// FirstDeliveryAfter is the first payload delivery at or after the
	// restore (-1 if none landed).
	FirstDeliveryAfter netsim.Time
	// Entries, ReconfigTime, HardwareCost are the committed target's
	// flow-table entry count and costmodel-derived downtime and
	// hardware price (zero unless committed).
	Entries      int
	ReconfigTime time.Duration
	HardwareCost float64
}

// Reconvergence returns the drain→first-restored-delivery time, or -1
// when the fabric never delivered after the restore (a rejected stage
// never restores).
func (s *Stage) Reconvergence() netsim.Time {
	if s.FirstDeliveryAfter < 0 {
		return -1
	}
	return s.FirstDeliveryAfter - s.DrainAt
}

// TotalChurn is the transition's full rule churn: the degraded patch
// plus the restore swap.
func (s *Stage) TotalChurn() int { return s.PatchChurn + s.RestoreChurn }

// Schedule validates the spec's shape against the running topology and
// resolves the stage times. It is the pure-time half of New: no cabling
// is consulted, so drained sets and reject decisions are not filled in.
func (s *Spec) Schedule(g *topology.Graph) ([]Stage, error) {
	var out []Stage
	prevEnd := netsim.Time(-1)
	for i, t := range s.Transitions {
		if t.Target == nil {
			return nil, fmt.Errorf("reconfig: transition %d: nil target", i)
		}
		if err := t.Target.Validate(); err != nil {
			return nil, fmt.Errorf("reconfig: transition %d: invalid target %q: %w", i, t.Target.Name, err)
		}
		if t.At <= 0 {
			return nil, fmt.Errorf("reconfig: transition %d: non-positive time %d", i, t.At)
		}
		drain, install := t.Drain, t.Install
		if drain == 0 {
			drain = DefaultDrain
		}
		if install == 0 {
			install = DefaultInstall
		}
		if drain < 0 || install < 0 {
			return nil, fmt.Errorf("reconfig: transition %d: negative stage window", i)
		}
		if t.At <= prevEnd {
			return nil, fmt.Errorf("reconfig: transition %d: starts at %d inside the previous transition's window (ends %d)", i, t.At, prevEnd)
		}
		st := Stage{
			Transition:         t,
			Desc:               fmt.Sprintf("%s->%s @%dus", g.Name, t.Target.Name, int64(t.At/netsim.Microsecond)),
			DrainAt:            t.At,
			CommitAt:           t.At + drain,
			RestoreAt:          t.At + drain + install,
			PatchAt:            -1,
			FirstDeliveryAfter: -1,
		}
		if p := s.Patch(); p >= 0 && p < drain {
			st.PatchAt = t.At + p
		}
		prevEnd = st.RestoreAt
		out = append(out, st)
	}
	return out, nil
}

// Reconfigurer executes one spec's transitions against one running
// fabric. Create with New, then Bind before the simulation starts. All
// stage execution happens inside the engine thread; the Reconfigurer
// owns a run-private controller over the testbed's cabling, so
// concurrent sweep siblings never contend.
type Reconfigurer struct {
	// Stages is the resolved schedule; each stage's record fills in as
	// the run executes. Stages rejected at New time (target does not
	// project onto the cabling) are complete up front.
	Stages []Stage

	ctl  *controller.Controller // run-private: the modelled testbed
	cur  *controller.Deployment // the running topology's deployment, or a committed target's
	live *routing.Routes        // run-private; mutated by patch/restore
	orig []routing.Rule         // the strategy's full rules, the restore baseline

	net   *netsim.Network // the bound fabric
	drops int64           // FaultDrops at the open stage's drain (windows never overlap)
}

// New resolves a spec against the running topology g, the testbed's
// cabling, and the run-private live route set. It deploys g with the
// routes the run forwards on onto a fresh controller over the cabling
// (the modelled current deployment), probes every target's projection
// to compute the drained link sets, and rejects — without error —
// transitions whose target cannot be projected at all: those stages
// never touch the fabric. Schedule-shape problems (nil or invalid
// targets, overlapping windows) are errors.
//
// live must be private to the run (routing.Routes.Clone): patch and
// restore mutate it mid-simulation.
func New(g *topology.Graph, cab *projection.Cabling, live *routing.Routes, spec *Spec) (*Reconfigurer, error) {
	stages, err := spec.Schedule(g)
	if err != nil {
		return nil, err
	}
	ctl := controller.New(cab)
	cur, err := ctl.Deploy(g, controller.Options{Strategy: routing.Fixed{Routes: live.Clone()}})
	if err != nil {
		return nil, fmt.Errorf("reconfig: running topology: %w", err)
	}
	r := &Reconfigurer{
		Stages: stages, ctl: ctl, cur: cur,
		live: live, orig: append([]routing.Rule(nil), live.Rules...),
	}
	for i := range r.Stages {
		st := &r.Stages[i]
		probe, perr := projection.Project(st.Target, cab, partition.Options{})
		if perr != nil {
			st.Outcome = OutcomeRejected + ": " + perr.Error()
			continue
		}
		st.Drained = cur.Plan.EdgesClaimedBy(probe)
	}
	return r, nil
}

// Bind arms the stage schedule on a network. Call before the simulation
// runs. Rejected stages schedule nothing: their record is complete.
func (r *Reconfigurer) Bind(net *netsim.Network) {
	r.net = net
	for i := range r.Stages {
		st := &r.Stages[i]
		if st.Outcome != "" {
			continue
		}
		net.Sim.At(st.DrainAt, func() { r.drain(st) })
		if st.PatchAt >= 0 {
			net.Sim.At(st.PatchAt, func() { r.patch(st) })
		}
		net.Sim.At(st.CommitAt, func() { r.commit(st) })
	}
}

// drain takes the stage's link set down; in-flight packets on those
// links account as fault drops with PFC unwind.
func (r *Reconfigurer) drain(st *Stage) {
	r.drops = r.net.FaultDrops
	for _, e := range st.Drained {
		r.net.SetLinkDown(e, true)
	}
}

// patch swaps degraded routes around the links the fabric reports
// down — the drained set: destinations whose trees ride drained links
// move to shortest paths on the surviving subgraph, everything else
// keeps its strategy rules.
func (r *Reconfigurer) patch(st *Stage) {
	st.PatchChurn = r.live.Reroute(r.orig, r.net.LinkIsDown)
}

// commit runs the control-plane switchover and either schedules the
// reconverge stage (success) or rolls back immediately (failure): the
// previous deployment restored, links restored, original rules swapped
// back — the run completes on the old topology.
func (r *Reconfigurer) commit(st *Stage) {
	if err := r.switchover(st); err != nil {
		st.Outcome = OutcomeRolledBack + ": " + err.Error()
		st.RestoreAt = r.net.Sim.Now()
		r.restore(st)
		return
	}
	d := r.cur
	req := projection.Requirement{Method: projection.MethodSDT, Switches: d.Plan.Stats().PhysicalSwitches, BandwidthFactor: 1}
	st.Outcome = OutcomeCommitted
	st.Entries, st.ReconfigTime, st.HardwareCost = d.Entries, d.DeployTime, costmodel.HardwareCost(req)
	r.net.Sim.At(st.RestoreAt, func() { r.restore(st) })
}

// switchover is the control-plane half of commit: the controller
// replaces the current deployment with the target's, and the new plan
// must pass Plan.Check and the transition's Validate. When either
// fails, the controller is reconfigured back to the previous topology
// with the previous deployment's routes; when the target cannot be
// deployed at all, Reconfigure has already put the previous deployment
// back.
func (r *Reconfigurer) switchover(st *Stage) error {
	prev := r.cur
	d, err := r.ctl.Reconfigure(prev.Name, st.Target, controller.Options{})
	if err != nil {
		return err
	}
	if err = d.Plan.Check(); err == nil && st.Validate != nil {
		err = st.Validate(d.Plan)
	}
	if err != nil {
		back, rerr := r.ctl.Reconfigure(d.Name, prev.Topo, controller.Options{Strategy: routing.Fixed{Routes: prev.Routes}})
		if rerr != nil {
			// Cannot happen while the run owns its controller (tearing
			// the target down leaves the cabling as empty as when the
			// previous topology was deployed on it), but never mask it.
			return fmt.Errorf("%v (rollback failed: %v)", err, rerr)
		}
		r.cur = back
		return err
	}
	r.cur = d
	return nil
}

// restore is the reconverge stage (and the fabric half of rollback):
// drained links come back up and the original full rules are swapped
// in, invalidating the memoized FIB. The stage's losses close here, and
// its record awaits the first delivery after the restore.
func (r *Reconfigurer) restore(st *Stage) {
	for _, e := range st.Drained {
		r.net.SetLinkDown(e, false)
	}
	st.RestoreChurn = r.live.Reroute(r.orig, nil)
	st.Lost = r.net.FaultDrops - r.drops
	r.net.AwaitDelivery(func(now netsim.Time) { st.FirstDeliveryAfter = now })
}
