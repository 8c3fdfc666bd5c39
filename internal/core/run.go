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

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/reconfig"
	"repro/internal/routing"
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
// (WithWorkers) and returns results in job order. Topologies are
// validated and SDT deployments made serially up front (deploying
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

// scenarioWorkload names a scenario's workload and derives its rank
// count: the trace's declared Ranks, or one past the highest rank a
// flow schedule or a stream set references.
func scenarioWorkload(sc Scenario) (name string, ranks int) {
	if sc.Trace != nil {
		return sc.Trace.Name, sc.Trace.Ranks
	}
	for i := range sc.Flows {
		ranks = max(ranks, sc.Flows[i].Src+1, sc.Flows[i].Dst+1)
	}
	for _, s := range sc.Streams {
		ranks = max(ranks, s.Src+1, s.Dst+1)
	}
	if sc.Streams != nil {
		return fmt.Sprintf("streams[%d]", len(sc.Streams)), ranks
	}
	return fmt.Sprintf("flows[%d]", len(sc.Flows)), ranks
}

// validateScenario is the one place feature compatibility is decided,
// with one policy: reject loudly, never fall back.
func validateScenario(sc Scenario, cfg *runConfig) error {
	if sc.Topo == nil || (sc.Trace == nil && sc.Flows == nil && sc.Streams == nil) {
		return errors.New("core: scenario needs a Topo and a Trace, Flows or Streams")
	}
	if sc.Trace != nil && sc.Flows != nil || sc.Streams != nil && (sc.Trace != nil || sc.Flows != nil) {
		return errors.New("core: scenario can carry only one of Trace, Flows and Streams")
	}
	if tr := sc.Trace; tr != nil && (tr.Ranks < 1 || tr.Ranks != len(tr.Programs)) {
		return fmt.Errorf("core: trace %q has %d ranks and %d programs; it needs at least one rank and one program per rank", tr.Name, tr.Ranks, len(tr.Programs))
	}
	if (sc.Streams != nil && (len(sc.Streams) == 0 || sc.Until <= 0)) || (sc.Streams == nil && sc.Until != 0) {
		return errors.New("core: a Streams scenario needs a stream and an Until > 0, and only Streams take an Until")
	}
	for _, s := range sc.Streams {
		if s.Src < 0 || s.Dst < 0 || s.Src == s.Dst {
			return fmt.Errorf("core: stream %d->%d needs two distinct ranks", s.Src, s.Dst)
		}
	}
	for i := range sc.Flows {
		if f := &sc.Flows[i]; f.Src < 0 || f.Dst < 0 || f.Src == f.Dst || f.Bytes < 0 {
			return fmt.Errorf("core: flow %d (%d->%d, %d bytes) needs two distinct ranks and a size >= 0", i, f.Src, f.Dst, f.Bytes)
		}
	}
	if j, i := netsim.DuplicateFlow(sc.Flows); j >= 0 {
		f := &sc.Flows[j]
		return fmt.Errorf("core: flow %d repeats flow %d's (src, dst, tag) = (%d, %d, %d)", j, i, f.Src, f.Dst, f.Tag)
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
	if sc.Flows == nil {
		return errors.New("core: flow fidelity requires an open-loop Flows scenario, not a Trace or Streams (closed-loop replay and TCP have no fluid equivalent)")
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
	for r, v := range hosts[:ranks] {
		if v < 0 || v >= len(g.Vertices) || g.Vertices[v].Kind != topology.Host {
			return nil, fmt.Errorf("core: rank %d is placed on vertex %d, which is not a host of %q", r, v, g.Name)
		}
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
	var app workloadApp
	switch {
	case tr != nil:
		app = netsim.NewApp(net, hosts[:ranks], tr.Programs, nil)
	case sc.Streams != nil:
		app = &streamApp{net: net, hosts: hosts, streams: sc.Streams, until: sc.Until}
	default:
		app = netsim.NewFlowApp(net, hosts[:ranks], sc.Flows, nil)
	}
	records, err := armFaults(net, sc, g)
	if err != nil {
		return nil, err
	}
	rc, err := armReconfig(net, sc, g, tb)
	if err != nil {
		return nil, err
	}
	for _, h := range cfg.observers {
		if h.Start != nil {
			h.Start(net, sc)
		}
	}
	armTicks(net, app, cfg.observers)
	var halt atomic.Bool // polled every engine.StopStride events
	net.Sim.SetStop(&halt)
	release := context.AfterFunc(ctx, func() { halt.Store(true) })
	wallStart := time.Now()
	app.Start()
	net.Sim.Run(sc.Until)
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
		ACT: act, Wall: wall,
		Drops: net.TotalDrops, Pauses: net.PausesSent, EcnMarks: net.EcnMarks,
		Events: net.Sim.Events(), FaultDrops: net.FaultDrops, Incomplete: incomplete,
		Faults: records,
	}
	if rc != nil {
		res.Reconfig = rc.Stages
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

// workloadApp is the workload a packet-level run drives: a trace replay
// (netsim.App), a flow schedule (netsim.FlowApp) or a stream set.
// ACT is -1 while the workload runs.
type workloadApp interface {
	Start()
	ACT() netsim.Time
}

// streamApp starts a Streams scenario's unlimited TCP streams and
// writes each live connection back into the caller's slice. Streams
// never finish, so the workload completes at its Until bound.
type streamApp struct {
	net     *netsim.Network
	hosts   []int
	streams []Stream
	until   netsim.Time
}

func (a *streamApp) Start() {
	for i := range a.streams {
		s := &a.streams[i]
		s.Conn = a.net.StartTCP(a.hosts[s.Src], a.hosts[s.Dst], -1, nil)
	}
}

func (a *streamApp) ACT() netsim.Time {
	if a.net.Sim.Now() < a.until {
		return -1
	}
	return a.until
}

// armFaults expands and binds the scenario's fault schedule, if any,
// repairing a run-private clone of the route set after the spec's
// repair latency (none when repair is disabled). The records are the
// run's per-fault results; nil when the scenario carries no faults.
func armFaults(net *netsim.Network, sc Scenario, g *topology.Graph) ([]faults.Record, error) {
	if sc.Faults == nil {
		return nil, nil
	}
	sched, err := sc.Faults.Schedule(g)
	if err != nil {
		return nil, err
	}
	var live *routing.Routes
	lat := sc.Faults.Repair()
	if lat >= 0 {
		live = privateRoutes(net)
	}
	return faults.Bind(net, sched, live, lat), nil
}

// armReconfig builds and binds the scenario's reconfiguration
// schedule, if any: a Reconfigurer over a run-private projection
// allocation (drawn from the testbed controller's cabling) and a
// run-private route set. Its stages are the run's transition records.
// Returns nil when the scenario carries no reconfig.Spec.
func armReconfig(net *netsim.Network, sc Scenario, g *topology.Graph, tb *Testbed) (*reconfig.Reconfigurer, error) {
	if sc.Reconfig == nil {
		return nil, nil
	}
	rc, err := reconfig.New(g, tb.Ctl.Cabling, privateRoutes(net), sc.Reconfig)
	if err != nil {
		return nil, err
	}
	rc.Bind(net)
	return rc, nil
}

// privateRoutes gives a run its own copy of the fabric's route set and
// forwards on it. Fault repair and reconfiguration mutate the
// rules mid-run; SDT deployments and sweep siblings sharing the
// original must stay untouched. Testbed.network always builds a
// RouteForwarder.
func privateRoutes(net *netsim.Network) *routing.Routes {
	live := net.Fwd.(netsim.RouteForwarder).Routes.Clone()
	net.Fwd = netsim.NewRouteForwarder(live)
	return live
}

// armTicks schedules each observer's periodic Tick inside the
// simulation. A tick chain re-arms itself only while the workload is
// incomplete AND the event queue holds something beyond the other
// chains' next ticks: once the last rank finishes — or the fabric goes
// quiescent with the workload stuck (drops with nothing left to
// retransmit) — the chains disarm, the queue drains, and Run(0)
// returns, so observers never mask the did-not-complete error with an
// infinite self-rescheduling timer. A Streams workload is incomplete
// until its Until bound, so its chains tick up to Until.
func armTicks(net *netsim.Network, app workloadApp, observers []Hooks) {
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
