package core

// Run and Sweep: the context-aware execution surface. Run executes one
// Scenario on a Testbed; Sweep executes a batch of (Testbed, Scenario)
// jobs one simulation per worker. Both thread cancellation into the
// engine's event loop — a cancelled context stops a simulation within
// one engine.StopStride of events, not merely between jobs.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/reconfig"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Run executes one scenario on the testbed. The context cancels
// cooperatively: the engine's run loop polls a stop flag every
// engine.StopStride events, so cancellation lands mid-simulation and
// Run returns ctx.Err(). The scenario carries every result knob;
// options only attach observers and set Sweep's fan-out.
//
// Cancellation contract: a cancelled Run returns (nil, ctx.Err()) —
// never a partial RunResult. A simulation stopped at an arbitrary
// event-stride boundary has internally inconsistent counters (packets
// mid-flight, trackers mid-window), so no RunResult is synthesized
// from it; per-flow progress a caller owns (Scenario.Flows completion
// fields) is still as the engine left it. Pinned by
// TestCancelContract.
func Run(ctx context.Context, tb *Testbed, sc Scenario, opts ...Option) (*RunResult, error) {
	return runScenario(ctx, tb, sc, newRunConfig(opts))
}

// Job is one Sweep entry: a scenario bound to the testbed that runs
// it. Jobs in one sweep may target different testbeds (e.g. Table IV
// sizes a testbed per topology).
type Job struct {
	TB *Testbed
	Scenario
}

// Sweep executes independent jobs one simulation per worker
// (WithWorkers) and returns results in job order. SDT deployments and
// the lazy topology caches are primed serially up front (deploying
// mutates the controller; a live deployment is read-only), after which
// the simulations share only read-only state. Cancelling the context
// stops in-flight simulations mid-run and prevents new jobs from
// starting; Sweep then returns ctx.Err(). Wall measures contended
// wall clock when workers > 1.
//
// Cancellation contract: when Sweep returns an error after jobs have
// started — cancellation included — it returns the PARTIAL results
// slice alongside the error: out[i] is non-nil exactly for the jobs
// that completed before the failure, nil for jobs that were cancelled
// mid-run or never started. Callers that only want all-or-nothing keep
// ignoring the slice on error; callers like a draining service salvage
// the completed entries. A Sweep that fails validation before starting
// any job returns (nil, err). Pinned by TestCancelContract.
func Sweep(ctx context.Context, jobs []Job, opts ...Option) ([]*RunResult, error) {
	cfg := newRunConfig(opts)
	seen := map[*topology.Graph]bool{}
	for _, j := range jobs {
		if j.TB == nil {
			return nil, errors.New("core: sweep job without a testbed")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !seen[j.Topo] {
			seen[j.Topo] = true
			if j.Topo == nil {
				return nil, errors.New("core: sweep job without a topology")
			}
			if err := j.Topo.Validate(); err != nil {
				return nil, err
			}
			j.Topo.Hosts() // build the lazy adjacency/kind caches
		}
		if j.Mode == SDT {
			if _, err := j.TB.ensureDeployment(j.Topo, j.Strategy); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*RunResult, len(jobs))
	err := ForEach(ctx, cfg.workers, len(jobs), func(i int) error {
		res, err := runScenario(ctx, jobs[i].TB, jobs[i].Scenario, cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	// Partial results survive an error: ForEach has joined every started
	// worker by now, so the slice is quiescent and out[i] != nil marks
	// exactly the completed jobs.
	return out, err
}

// ForEach is par.For with cooperative cancellation: once ctx ends no
// further job starts, and the context's error is returned. Jobs
// already running are responsible for observing ctx themselves (Run
// does, via the engine stop flag).
func ForEach(ctx context.Context, workers, n int, job func(i int) error) error {
	if ctx == nil || ctx.Done() == nil {
		return par.For(workers, n, job)
	}
	return par.For(workers, n, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return job(i)
	})
}

// WatchCancel arms cooperative cancellation of a simulation on ctx:
// the engine's run loop stops within engine.StopStride events of the
// context ending. The returned release func detaches the watcher and
// must be called once the run returns (typically via defer). Run uses
// it, and so does the one caller driving netsim directly: the fig12
// incast in internal/experiments, whose long-lived TCP flows run for a
// fixed simulated window that no Scenario expresses.
func WatchCancel(ctx context.Context, sim *netsim.Sim) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	var flag atomic.Bool
	sim.SetStop(&flag, 0)
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			flag.Store(true)
		case <-done:
		}
	}()
	return func() {
		close(done)
		sim.SetStop(nil, 0)
	}
}

// scenarioWorkload names a scenario's workload and derives its rank
// count: the trace's declared Ranks, or one past the highest rank a
// flow schedule references.
func scenarioWorkload(sc Scenario) (name string, ranks int) {
	if sc.Trace != nil {
		return sc.Trace.Name, sc.Trace.Ranks
	}
	for i := range sc.Flows {
		f := &sc.Flows[i]
		if f.Src >= ranks {
			ranks = f.Src + 1
		}
		if f.Dst >= ranks {
			ranks = f.Dst + 1
		}
	}
	return fmt.Sprintf("flows[%d]", len(sc.Flows)), ranks
}

// validateScenario is the one place feature compatibility is decided,
// with one policy: reject loudly, never fall back.
func validateScenario(sc Scenario, cfg *runConfig) error {
	if sc.Topo == nil || (sc.Trace == nil && sc.Flows == nil) {
		return errors.New("core: scenario needs a Topo and a Trace or Flows")
	}
	if sc.Trace != nil && sc.Flows != nil {
		return errors.New("core: scenario cannot carry both a Trace and Flows")
	}
	if sc.Faults != nil && sc.Reconfig != nil {
		// Both subsystems clone and swap the live route set mid-run;
		// their patches would silently overwrite each other.
		return errors.New("core: scenario cannot carry both Faults and Reconfig")
	}
	if sc.Fidelity != Flow {
		return nil
	}
	// The fluid model cannot honour packet-level machinery, and
	// silently degrading would corrupt comparisons.
	if sc.Trace != nil {
		return errors.New("core: flow fidelity requires an open-loop Flows scenario, not a Trace (closed-loop replay has no fluid equivalent)")
	}
	if sc.Faults != nil {
		return errors.New("core: flow fidelity cannot inject faults (packet loss has no fluid equivalent); run at packet fidelity")
	}
	if sc.Reconfig != nil {
		return errors.New("core: flow fidelity cannot reconfigure topology mid-run; run at packet fidelity")
	}
	if sc.Mode == SDT {
		return errors.New("core: flow fidelity does not model SDT projection (crossbar sharing and per-hop overhead are packet-level); use FullTestbed mode")
	}
	if len(cfg.observers) > 0 {
		return errors.New("core: flow fidelity supports no observers (there is no packet-level network to observe)")
	}
	return nil
}

// runScenario is the one execution path under Run and Sweep.
func runScenario(ctx context.Context, tb *Testbed, sc Scenario, cfg *runConfig) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateScenario(sc, cfg); err != nil {
		return nil, err
	}
	g, tr := sc.Topo, sc.Trace
	name, ranks := scenarioWorkload(sc)
	hosts := sc.Hosts
	if hosts == nil {
		all := g.Hosts()
		if len(all) < ranks {
			return nil, fmt.Errorf("core: topology %q has %d hosts, workload needs %d", g.Name, len(all), ranks)
		}
		hosts = PickSpread(all, ranks)
	}
	if len(hosts) < ranks {
		return nil, fmt.Errorf("core: %d hosts for %d ranks", len(hosts), ranks)
	}
	simCfg := tb.Cfg
	if sc.SimConfig != nil {
		simCfg = *sc.SimConfig
	}
	if sc.Fidelity == Flow {
		return runFlowScenario(ctx, sc, hosts[:ranks], simCfg)
	}
	net, dep, err := tb.network(g, sc.Strategy, sc.Mode, simCfg)
	if err != nil {
		return nil, err
	}
	var app interface {
		Start()
		ACT() netsim.Time
	}
	if tr != nil {
		app = netsim.NewApp(net, hosts, tr.Programs, nil)
	} else {
		app = netsim.NewFlowApp(net, hosts[:ranks], sc.Flows, nil)
	}
	tracker, err := armFaults(net, sc, g)
	if err != nil {
		return nil, err
	}
	rcTracker, err := armReconfig(net, sc, g, tb)
	if err != nil {
		return nil, err
	}
	for _, h := range cfg.observers {
		if h.Start != nil {
			h.Start(net, sc)
		}
	}
	armTicks(net, app, cfg.observers)
	release := WatchCancel(ctx, net.Sim)
	wallStart := time.Now()
	app.Start()
	net.Sim.Run(0)
	release()
	wall := time.Since(wallStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	act := app.ACT()
	incomplete := 0
	if act < 0 {
		fa, isFlows := app.(*netsim.FlowApp)
		if (sc.Faults == nil && sc.Reconfig == nil) || !isFlows {
			return nil, fmt.Errorf("core: %s on %s (%s) did not complete: drops=%d faultdrops=%d",
				name, g.Name, sc.Mode, net.TotalDrops, net.FaultDrops)
		}
		// Open-loop flows under faults or reconfiguration: packet loss
		// is a result, not an error. ACT degrades to the last completed
		// flow.
		act = fa.LastCompletion()
		incomplete = fa.Outstanding()
	}
	res := &RunResult{
		Mode: sc.Mode, ACT: act, Wall: wall,
		Drops: net.TotalDrops, Pauses: net.PausesSent, EcnMarks: net.EcnMarks,
		Events: net.Sim.Events(), FaultDrops: net.FaultDrops, Incomplete: incomplete,
	}
	if tracker != nil {
		res.Recovery = tracker.Report(incomplete)
	}
	if rcTracker != nil {
		res.Reconfig = rcTracker.ReconfigReport(incomplete)
	}
	if dep != nil {
		res.Deploy = dep.DeployTime
	}
	for _, h := range cfg.observers {
		if h.Finish != nil {
			h.Finish(res, net)
		}
	}
	return res, nil
}

// armFaults expands and binds the scenario's fault schedule, if any:
// the fabric degrades at each event, a Rerouter patches a run-private
// clone of the route set after the spec's repair latency, and a
// RecoveryTracker stamps fault/repair/reconvergence times. Returns nil
// when the scenario carries no faults.
func armFaults(net *netsim.Network, sc Scenario, g *topology.Graph) (*telemetry.RecoveryTracker, error) {
	if sc.Faults == nil {
		return nil, nil
	}
	sched, err := sc.Faults.Schedule(g)
	if err != nil {
		return nil, err
	}
	tracker := telemetry.NewRecoveryTracker(net)
	obs := []faults.Observer{faults.ObserverFunc(func(n *netsim.Network, ev faults.Event) {
		tracker.Fault(n.Sim.Now(), ev.String())
	})}
	if lat := sc.Faults.Repair(); lat >= 0 {
		if rf, ok := net.Fwd.(netsim.RouteForwarder); ok {
			// Repairs mutate the route set mid-run; give this run its
			// own copy so SDT deployments and sweep siblings sharing
			// the original stay untouched.
			live := rf.Routes.Clone()
			live.Prime()
			net.Fwd = netsim.NewRouteForwarder(live)
			rr := controller.NewRerouter(g, live, lat)
			rr.OnRepair = func(rep controller.Repair) { tracker.Repaired(rep.At, rep.RulesChanged) }
			obs = append(obs, rr)
		}
	}
	faults.Bind(net, sched, obs...)
	return tracker, nil
}

// armReconfig builds and binds the scenario's reconfiguration
// schedule, if any: a Reconfigurer over a run-private projection
// allocation (drawn from the testbed controller's cabling) and a
// run-private clone of the route set, with a RecoveryTracker wired to
// every stage hook so the run result carries the per-transition
// protocol telemetry. Returns nil when the scenario schedules no
// transitions.
func armReconfig(net *netsim.Network, sc Scenario, g *topology.Graph, tb *Testbed) (*telemetry.RecoveryTracker, error) {
	if sc.Reconfig == nil {
		return nil, nil
	}
	rf, ok := net.Fwd.(netsim.RouteForwarder)
	if !ok {
		return nil, errors.New("core: reconfiguration needs a route-forwarded fabric")
	}
	// Patch and restore mutate the route set mid-run; give this run its
	// own copy so SDT deployments and sweep siblings sharing the
	// original stay untouched (same contract as armFaults).
	live := rf.Routes.Clone()
	live.Prime()
	net.Fwd = netsim.NewRouteForwarder(live)
	rc, err := reconfig.New(g, tb.Ctl.Cabling, live, sc.Reconfig, partition.Options{})
	if err != nil {
		return nil, err
	}
	tracker := telemetry.NewRecoveryTracker(net)
	// rec maps the reconfigurer's stage index to the tracker's record
	// index (rejected stages record out of band, so they differ).
	rec := make([]int, len(rc.Stages))
	rc.OnDrain = func(now netsim.Time, i int, drained []int) {
		rec[i] = tracker.TransitionDrain(now, rc.Stages[i].Desc, len(drained))
	}
	rc.OnReject = func(now netsim.Time, i int, reason string) {
		tracker.TransitionReject(now, rc.Stages[i].Desc, reason)
	}
	rc.OnPatch = func(now netsim.Time, i int, churn int) {
		tracker.TransitionPatch(rec[i], now, churn)
	}
	rc.OnCommit = func(now netsim.Time, i int, entries int, reconfigTime time.Duration, hwCost float64) {
		tracker.TransitionCommit(rec[i], now, entries, reconfigTime, hwCost)
	}
	rc.OnRollback = func(now netsim.Time, i int, reason string) {
		tracker.TransitionRollback(rec[i], now, reason)
	}
	rc.OnRestore = func(now netsim.Time, i int, churn int) {
		tracker.TransitionRestore(rec[i], now, churn)
	}
	rc.Bind(net)
	return tracker, nil
}

// armTicks schedules each observer's periodic Tick inside the
// simulation. A tick chain re-arms itself only while the workload is
// incomplete AND the event queue holds something beyond the other
// chains' next ticks: once the last rank finishes — or the fabric goes
// quiescent with the workload stuck (drops with nothing left to
// retransmit) — the chains disarm, the queue drains, and Run(0)
// returns, so observers never mask the did-not-complete error with an
// infinite self-rescheduling timer.
func armTicks(net *netsim.Network, app interface{ ACT() netsim.Time }, observers []Hooks) {
	type ticker struct {
		fn     func(now netsim.Time, net *netsim.Network)
		period netsim.Time
	}
	var tickers []ticker
	for _, h := range observers {
		if h.Tick == nil {
			continue
		}
		period := h.Period
		if period <= 0 {
			period = netsim.Millisecond
		}
		tickers = append(tickers, ticker{fn: h.Tick, period: period})
	}
	// active counts still-armed chains. While a chain executes, every
	// other live chain has exactly one pending tick event, so
	// Pending() < active means the ticks are the only future — the
	// simulation is done or wedged either way.
	active := len(tickers)
	for _, tk := range tickers {
		tk := tk
		var arm func(at netsim.Time)
		arm = func(at netsim.Time) {
			net.Sim.At(at, func() {
				tk.fn(at, net)
				if app.ACT() >= 0 || net.Sim.Pending() < active {
					active--
					return
				}
				arm(at + tk.period)
			})
		}
		arm(tk.period)
	}
}
