package core

// Scenario and the functional options of Run and Sweep. The split is
// the rule "Scenario = result knobs, Option = execution and
// observation": everything that changes a simulated byte — topology,
// workload, mode, host placement, routing strategy, sim-config,
// faults, reconfiguration, fidelity — is a Scenario field, and an
// Option only attaches an observer (WithObserver, WithTelemetry) or
// sets Sweep's fan-out (WithWorkers). Wall-clock bounds travel on the
// context (context.WithTimeout), like every other cancellation.

import (
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Fidelity selects how faithfully a run simulates the fabric.
type Fidelity int

const (
	// Packet is full packet-level discrete-event simulation — every
	// packet traverses every queue. The default, and the reference the
	// flow-level mode is differentially tested against.
	Packet Fidelity = iota
	// Flow is the flow-level fluid fast path (internal/flowsim): flows
	// transmit at the max-min fair share of the links they cross, with
	// rates recomputed at arrivals and completions. Each path is found
	// once, by walking its destination block's rules with Routes.Walk;
	// no FIB is compiled. Run
	// cost scales with flows rather than bytes × hops, reaching fabric
	// sizes packet simulation cannot (~10k–100k hosts). Requires an
	// open-loop Flows scenario; Trace, Faults, Reconfig, SDT mode, and
	// observers (there is no packet-level network to observe) are
	// rejected loudly.
	Flow
)

// String names the fidelity level.
func (f Fidelity) String() string {
	if f == Flow {
		return "Flow"
	}
	return "Packet"
}

// Scenario is one complete workload description: which topology, which
// trace, which evaluation platform, and optionally which hosts,
// routing strategy, and fabric configuration. The zero values of the
// optional fields mean "the testbed's defaults": a deterministic host
// spread, the topology's Table III strategy, and the testbed's
// SimConfig.
type Scenario struct {
	Topo  *topology.Graph
	Trace *workload.Trace
	// Flows is the open-loop alternative to Trace: an absolute-time
	// flow schedule (e.g. a loadgen.FlowSet's flows) driven through the
	// netsim flow-application layer instead of rank programs. Flow
	// Src/Dst are rank indices mapped onto Hosts exactly like trace
	// ranks; per-flow completion results are written back into this
	// slice. Exactly one of Trace, Flows and Streams must be set.
	Flows []netsim.Flow
	// Streams is the third workload form: long-lived TCP streams
	// between ranks that send until the run stops at Until. The run
	// writes each stream's live connection into the caller's slice, so
	// an observer can read its receiver-side bytes mid-run.
	Streams []Stream
	// Until is the simulated time a Streams run stops at, and its ACT;
	// it is required with Streams and rejected without them.
	Until netsim.Time
	Mode  Mode
	// Hosts places the trace's ranks (nil = deterministic spread over
	// the topology's hosts, the paper's "randomly select the nodes but
	// keep the same among all the evaluations").
	Hosts []int
	// Strategy computes the routes (nil = routing.ForTopology).
	Strategy routing.Strategy
	// SimConfig overrides the testbed's fabric configuration for this
	// run only (nil = use Testbed.Cfg): PFC, the CC policy (which
	// decides ECN marking), link and latency figures, and the SDT model
	// terms. Everything else about the fabric is a netsim constant.
	SimConfig *netsim.Config
	// Faults schedules link failures (and recoveries) during the run:
	// the spec expands into a deterministic timed event list, dead
	// links drop traversing packets, and — unless the spec
	// disables repair — a controller reroute patches the live FIB
	// around each outage after the modelled detection latency. The run
	// result then carries FaultDrops, Incomplete, and Recovery. Nil
	// (the default) changes nothing: a fault-free run is byte-identical
	// to one built before the fault subsystem existed.
	//
	// Packet loss is tolerated only for open-loop Flows scenarios
	// (incomplete flows are reported, not fatal); a Trace scenario that
	// loses a packet still fails with "did not complete", since
	// closed-loop replay cannot progress past a lost message.
	Faults *faults.Spec
	// Reconfig schedules live topology transitions during the run: each
	// one executes the staged drain→transition→reconverge protocol
	// (internal/reconfig) against a run-private projection allocation
	// and route clone — affected links drain with PFC unwind, the
	// target is projected/checked/compiled at the control plane with
	// abort-to-rollback on any failure, and the run result's Reconfig
	// report carries packets lost, reconvergence time, rule churn, and
	// the costmodel downtime/price columns. Nil (the default) changes
	// nothing: a transition-free run is byte-identical to one built
	// before the subsystem existed, and an empty spec schedules no
	// stages. Mutually exclusive with Faults (both swap the live route
	// set mid-run). Packet loss inside transition windows is tolerated
	// only for open-loop Flows scenarios, exactly as under Faults.
	Reconfig *reconfig.Spec
	// Fidelity selects packet-level simulation (the zero value) or the
	// flow-level fluid fast path — see the Fidelity constants for the
	// contract.
	Fidelity Fidelity
}

// Stream is one long-lived TCP stream of a Streams scenario: Src and
// Dst are rank indices, and the run sets Conn to the live connection.
type Stream struct {
	Src, Dst int
	Conn     *netsim.TCPConn
}

// Hooks observes one run's lifecycle. Any field may be nil. Tick fires
// every Period of simulated time while the workload is still running
// (Period <= 0 defaults to 1 ms); the final tick after the last rank
// finishes is delivered and then the ticker disarms so the event queue
// can drain. A Streams run never finishes early: it ticks up to and
// including its Until bound.
type Hooks struct {
	// Start runs after the network is built, before traffic starts.
	Start func(net *netsim.Network, sc Scenario)
	// Tick runs periodically inside the simulation.
	Tick func(now netsim.Time, net *netsim.Network)
	// Period is the simulated-time interval between Tick calls.
	Period netsim.Time
	// Finish runs after a completed (not cancelled) simulation.
	Finish func(res *RunResult, net *netsim.Network)
}

// Option configures one Run or Sweep invocation.
type Option func(*runConfig)

// runConfig is the resolved option set.
type runConfig struct {
	observers []Hooks
	workers   int
}

// newRunConfig applies opts over the defaults (serial sweep, no
// observers).
func newRunConfig(opts []Option) *runConfig {
	cfg := &runConfig{workers: 1}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithObserver attaches lifecycle hooks to every run of the
// invocation. Observers compose: each WithObserver adds another set.
func WithObserver(h Hooks) Option {
	return func(c *runConfig) { c.observers = append(c.observers, h) }
}

// WithTelemetry attaches a telemetry collector as a run observer: the
// collector samples the network's link counters every collector period
// of simulated time while the workload runs. A collector is safe to share across the runs of
// a Sweep (it keeps per-network counter baselines and is
// mutex-guarded); its series are then a sweep-wide aggregate.
func WithTelemetry(col *telemetry.Collector) Option {
	return WithObserver(Hooks{
		Period: col.Period,
		Tick:   func(_ netsim.Time, net *netsim.Network) { col.Collect(net) },
		Finish: func(_ *RunResult, net *netsim.Network) { col.Detach(net) },
	})
}

// WithWorkers sets Sweep's fan-out: one simulation per worker.
// 0 means all cores, 1 (the default) runs serially. Run ignores it.
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.workers = n }
}
