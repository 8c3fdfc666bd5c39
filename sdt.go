// Package sdt is the public facade of the SDT (Software Defined
// Topology Testbed) library — a reproduction of Chen et al., "SDT: A
// Low-cost and Topology-reconfigurable Testbed for Network Research"
// (IEEE CLUSTER 2023).
//
// The facade re-exports the entry points a downstream user needs:
// building logical topologies, planning a physical cabling, projecting
// topologies onto commodity OpenFlow switches via Link Projection,
// computing Table III routing strategies with verified deadlock
// freedom, and running workloads on the packet-level engine in full-
// testbed, SDT, or simulator mode.
//
// Execution goes through one composable surface: a Scenario carries
// every knob that changes a simulated byte (topology, workload, mode,
// host placement, strategy, sim-config, faults, reconfiguration,
// fidelity) and is run with Run(ctx, tb, scenario, ...Option), or
// fanned out one simulation per worker with Sweep(ctx, jobs,
// ...Option). Options only observe and schedule — WithObserver,
// WithTelemetry, WithWorkers — and the context cancels cooperatively
// *inside* the event loop: the engine polls a stop flag on an
// event-count stride, so a cancelled or timed-out run or sweep stops
// mid-simulation, not between jobs.
//
// Quickstart:
//
//	topo := sdt.FatTree(4)
//	tb, err := sdt.PaperTestbed([]*sdt.Topology{topo})
//	...
//	res, err := sdt.Run(ctx, tb, sdt.Scenario{
//		Topo:  topo,
//		Trace: sdt.AlltoallTrace(8, 64<<10, 4),
//		Mode:  sdt.ModeSDT,
//	})
//
// and a batch, one simulation per core, telemetry sampled during each
// run:
//
//	col := sdt.NewTelemetryCollector(topo, sdt.Millisecond, 0)
//	results, err := sdt.Sweep(ctx, jobs, sdt.WithWorkers(0), sdt.WithTelemetry(col))
//
// Workloads come in two families (WORKLOADS.md is the catalogue):
// closed-loop MPI trace replay (PingpongTrace, AlltoallTrace, HPCG,
// HPL, ...) via Scenario.Trace, and open-loop synthetic traffic via
// Scenario.Flows — seeded Poisson flow arrivals at a target load
// factor under a pluggable pattern (uniform, permutation, incast,
// outcast, hotspot, rack-local) with configurable size distributions:
//
//	fs := sdt.LoadSpec{
//		Ranks: 16, Load: 0.5, Flows: 10_000,
//		Pattern: sdt.PatternIncast(8), Sizes: sdt.WebSearchSizes(),
//		Seed: 7,
//	}.MustGenerate()
//	res, err := sdt.Run(ctx, tb, sdt.Scenario{Topo: topo, Flows: fs.Flows})
//	fct := sdt.MeasureFCT(fs.Flows, 10e9, 0, nil) // per-bucket p50/p95/p99
//
// Open-loop schedules can trade per-packet fidelity for scale:
// Scenario{..., Fidelity: sdt.FidelityFlow} runs the same schedule
// through a max-min fair-share fluid approximation whose cost grows
// with the number of flows instead of bytes × hops, reaching fabrics
// (a 65k-host fat-tree) the packet engine cannot touch. MeasureFCT
// consumes the completions identically; the packet-vs-flow agreement
// envelope is pinned by internal/flowsim's differential harness.
//
// A Scenario can also carry a FaultSpec — seeded, deterministic link
// and switch failures (one-shot events or MTBF/MTTR flaps). Dead
// elements drop traversing packets; the controller reroute notices
// after the spec's repair latency and patches the live FIB around the
// outage (healthy destinations keep their strategy routes, broken ones
// move to shortest paths on the surviving fabric, and recovery
// restores the originals). The result reports packets lost,
// reconvergence time per fault, and route churn:
//
//	link := sdt.PickCoreEdges(topo, 1, 7)[0]
//	res, err := sdt.Run(ctx, tb, sdt.Scenario{
//		Topo: topo, Flows: fs.Flows,
//		Faults: &sdt.FaultSpec{Events: []sdt.FaultEvent{
//			{At: sdt.Millisecond, Kind: sdt.FaultLinkDown, Elem: link},
//		}},
//	})
//	res.Recovery.Format(os.Stdout) // repair + reconvergence per fault
//
// Or a ReconfigSpec — live topology transitions mid-run. Each executes
// the staged drain→transition→reconverge protocol: the links the target
// topology claims drain first, the target is projected, checked, and
// compiled at the control plane (any failure aborts to a rollback onto
// the old topology), and the fabric then reconverges. The testbed must
// be cabled for both topologies:
//
//	tb, err := sdt.PaperTestbed([]*sdt.Topology{topo, target})
//	...
//	res, err := sdt.Run(ctx, tb, sdt.Scenario{
//		Topo: topo, Flows: fs.Flows,
//		Reconfig: &sdt.ReconfigSpec{Transitions: []sdt.ReconfigTransition{
//			{At: sdt.Millisecond, Target: target},
//		}},
//	})
//	for _, tr := range res.Reconfig.Transitions { ... } // loss, churn, reconvergence, cost
//
// The full implementation lives in the internal packages; see DESIGN.md
// for the system inventory, WORKLOADS.md for the workload catalogue,
// and EXPERIMENTS.md for the reproduced evaluation.
package sdt

import (
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Topology is a logical network topology (switches + hosts + ports).
type Topology = topology.Graph

// TopologyConfig is the JSON topology description format.
type TopologyConfig = topology.Config

// Topology generators (the paper's Fig. 1 set and helpers).
var (
	NewTopology = topology.New
	FatTree     = topology.FatTree
	Dragonfly   = topology.Dragonfly
	Mesh2D      = topology.Mesh2D
	Mesh3D      = topology.Mesh3D
	Torus2D     = topology.Torus2D
	Torus3D     = topology.Torus3D
	BCube       = topology.BCube
	HyperBCube  = topology.HyperBCube
	Line        = topology.Line
	Ring        = topology.Ring
	Star        = topology.Star
	FullMesh    = topology.FullMesh
	RandomWAN   = topology.RandomWAN
	TopologyZoo = topology.Zoo
	LoadConfig  = topology.LoadConfig
)

// PhysicalSwitch describes one commodity OpenFlow switch.
type PhysicalSwitch = projection.PhysicalSwitch

// Cabling is the fixed physical wiring of an SDT deployment.
type Cabling = projection.Cabling

// Plan is a Link Projection result: the logical→physical port mapping.
type Plan = projection.Plan

// Projection entry points.
var (
	H3CS6861    = projection.H3CS6861
	Commodity64 = projection.Commodity64
	PlanCabling = projection.PlanCabling
	Project     = projection.Project
)

// PartitionOptions tunes the multilevel topology partitioner (§IV-C).
type PartitionOptions = partition.Options

// Routing strategies (Table III) and deadlock verification.
type (
	// Routes is a computed forwarding rule set.
	Routes = routing.Routes
	// Strategy computes Routes for a topology.
	Strategy = routing.Strategy
	// FIB is a compiled forwarding table: Routes flattened into dense
	// per-switch arrays so the per-hop decision is one array load.
	// Obtain one with Routes.Compile (or the memoized Routes.FIB); the
	// packet engine's forwarders run on it automatically.
	FIB = routing.FIB
)

// FixedRoutes adapts an already-computed route set into a Strategy,
// so a Scenario can carry routes produced outside a strategy (e.g.
// the Network Monitor's UGAL active routes).
type FixedRoutes = routing.Fixed

// Routing constructors and helpers.
var (
	StrategyFor        = routing.ForTopology
	VerifyDeadlockFree = routing.VerifyDeadlockFree
)

// Controller is the SDT controller (§V): check, deploy, reconfigure.
type Controller = controller.Controller

// ControllerOptions tunes one deployment.
type ControllerOptions = controller.Options

// NewController builds a controller over switches able to host topos.
var NewController = controller.NewFromTopologies

// Testbed couples the controller with the packet-level engine.
type Testbed = core.Testbed

// RunResult reports one workload execution.
type RunResult = core.RunResult

// Scenario is one complete workload description — topology, trace,
// mode, and optional host placement / routing strategy / sim-config
// overrides — the unit Run executes and Sweep batches.
type Scenario = core.Scenario

// Job is one Sweep entry: a Scenario bound to the Testbed running it.
type Job = core.Job

// Option is a functional option for Run and Sweep.
type Option = core.Option

// RunHooks observes a run's lifecycle (WithObserver): network built,
// periodic in-simulation ticks, run finished.
type RunHooks = core.Hooks

// The composable execution surface: Run executes one Scenario, Sweep a
// batch of jobs one simulation per worker. Both stop mid-simulation on
// context cancellation. Options attach observers and set the fan-out.
var (
	Run           = core.Run
	Sweep         = core.Sweep
	WithTelemetry = core.WithTelemetry
	WithObserver  = core.WithObserver
	WithWorkers   = core.WithWorkers
)

// ForEach is the worker-pool helper behind the parallel experiment
// sweeps: it runs independent jobs 0..n-1 across workers (0 = all
// cores, 1 = serial) and returns the lowest-index job error. Once ctx
// ends no further job starts and the context's error is returned.
var ForEach = core.ForEach

// Mode selects the evaluation platform.
type Mode = core.Mode

// Evaluation platforms.
const (
	ModeFullTestbed = core.FullTestbed
	ModeSDT         = core.SDT
	ModeSimulator   = core.Simulator
)

// Fidelity selects how faithfully a run simulates the fabric: the
// packet-level engine (the zero value) or the flow-level max-min
// fair-share fluid approximation, whose cost scales with flow count
// instead of bytes × hops. Flow fidelity covers open-loop flow
// schedules on FullTestbed/Simulator runs; traces, faults,
// reconfiguration, SDT mode, and observers reject it loudly.
type Fidelity = core.Fidelity

// Simulation fidelities.
const (
	FidelityPacket = core.Packet
	FidelityFlow   = core.Flow
)

// Testbed constructors.
var (
	NewTestbed   = core.NewTestbed
	PaperTestbed = core.PaperTestbed
)

// SimConfig sets fabric and protocol parameters for the engine.
type SimConfig = netsim.Config

// Network is the packet-level fabric one run simulates; observers
// (RunHooks, telemetry) receive it to read counters mid-run.
type Network = netsim.Network

// TelemetryCollector samples per-logical-link byte counters inside a
// running simulation (§V-3 Network Monitor data plane). Attach one to
// a run with WithTelemetry.
type TelemetryCollector = telemetry.Collector

// NewTelemetryCollector builds a collector for a topology with the
// given sampling period (0 = 1 ms) and EWMA alpha (0 = 0.3).
var NewTelemetryCollector = telemetry.NewCollector

// SimTime is simulated (physical) time in picoseconds.
type SimTime = netsim.Time

// Simulated-time units.
const (
	Nanosecond  = netsim.Nanosecond
	Microsecond = netsim.Microsecond
	Millisecond = netsim.Millisecond
	Second      = netsim.Second
)

// DefaultSimConfig is the paper-calibrated configuration.
var DefaultSimConfig = netsim.DefaultConfig

// Congestion-control policy names for SimConfig.CC (empty means none:
// flows send at line rate).
const (
	CCDCQCN   = netsim.CCDCQCN
	CCTimely  = netsim.CCTimely
	CCPFabric = netsim.CCPFabric
)

// CCPolicies lists the selectable congestion-control policies.
var CCPolicies = netsim.CCPolicies

// Trace is a replayable MPI-style application.
type Trace = workload.Trace

// Workload generators (§VI-D applications).
var (
	PingpongTrace  = workload.Pingpong
	AlltoallTrace  = workload.Alltoall
	AllreduceTrace = workload.AllreduceRing
	HPCGTrace      = workload.HPCG
	HPLTrace       = workload.HPL
	MiniGhostTrace = workload.MiniGhost
	MiniFETrace    = workload.MiniFE
	WorkloadByName = workload.ByName
)

// Flow is one open-loop transfer: rank-indexed endpoints, a size, an
// absolute start time, and — after a run — its completion result.
type Flow = netsim.Flow

// NewFlowApp drives a flow schedule through a network directly; most
// callers run flows through a Scenario instead (Scenario.Flows).
var NewFlowApp = netsim.NewFlowApp

// LoadSpec describes one synthetic open-loop workload: ranks, target
// load factor, pattern, size distribution, flow count, and seed.
// Equal specs generate byte-identical schedules.
type LoadSpec = loadgen.Spec

// LoadFlowSet is a generated schedule: run it live via Scenario.Flows
// or compile it with Trace() into a replayable workload trace.
type LoadFlowSet = loadgen.FlowSet

// TrafficPattern chooses communicating pairs for a LoadSpec.
type TrafficPattern = loadgen.Pattern

// SizeDist draws flow sizes for a LoadSpec.
type SizeDist = loadgen.SizeDist

// CDFPoint is one point of an empirical flow-size CDF for NewSizeCDF:
// a fraction Frac of flows are of size <= Bytes.
type CDFPoint = loadgen.CDFPoint

// Traffic patterns (the loadgen catalogue; see WORKLOADS.md).
var (
	PatternUniform     = loadgen.Uniform
	PatternPermutation = loadgen.Permutation
	PatternIncast      = loadgen.Incast
	PatternOutcast     = loadgen.Outcast
	PatternHotspot     = loadgen.Hotspot
	PatternRackLocal   = loadgen.RackLocal
)

// Flow-size distributions.
var (
	FixedSize      = loadgen.FixedSize
	WebSearchSizes = loadgen.WebSearch
	ScaleSizes     = loadgen.ScaleSizes
	NewSizeCDF     = loadgen.NewCDF
)

// FCTReport is the bucketed flow-completion-time summary of a finished
// open-loop run: per size bucket, FCT and slowdown percentiles.
type FCTReport = telemetry.FCTReport

// FaultSpec schedules link/switch failures during a run: one-shot
// timed events plus seeded MTBF/MTTR flap processes. Attach one via
// Scenario.Faults — dead elements drop traversing packets, the
// controller reroute patches the live FIB after the spec's repair
// latency, and the RunResult carries FaultDrops, Incomplete, and
// Recovery. Equal specs expand to byte-identical schedules.
type FaultSpec = faults.Spec

// FaultEvent is one scheduled fault: a kind, an element (edge ID for
// link kinds, switch vertex ID for switch kinds), and an absolute
// simulated time.
type FaultEvent = faults.Event

// FaultFlap is a repeating MTBF/MTTR failure process on one element.
type FaultFlap = faults.Flap

// Fault event kinds.
const (
	FaultLinkDown   = faults.LinkDown
	FaultLinkUp     = faults.LinkUp
	FaultSwitchDown = faults.SwitchDown
	FaultSwitchUp   = faults.SwitchUp
)

// Fault helpers: flap constructors and deterministic failed-link
// selection (switch-switch edges only, so destinations stay attached).
var (
	NewLinkFlap   = faults.LinkFlap
	CoreEdges     = faults.CoreEdges
	PickCoreEdges = faults.PickCoreEdges
)

// Recovery summarises a fault run: per-fault repair and reconvergence
// times, route churn, packets lost, and incomplete flows (available as
// RunResult.Recovery).
type Recovery = telemetry.Recovery

// RecoveryEvent is the lifecycle of one fault in a Recovery.
type RecoveryEvent = telemetry.RecoveryEvent

// ReconfigSpec schedules live topology transitions during a run.
// Attach one via Scenario.Reconfig — each transition executes the
// staged drain→transition→reconverge protocol: the physical links the
// target claims drain first (in-flight packets drop, PFC trees unwind),
// the target is then projected, checked, and compiled at the control
// plane with abort-to-rollback on any failure, and finally the fabric
// reconverges while the run result's Reconfig report records packets
// lost, reconvergence time, rule churn, and the cost-model downtime and
// price columns. Equal specs expand to byte-identical schedules.
// Mutually exclusive with Scenario.Faults.
type ReconfigSpec = reconfig.Spec

// ReconfigTransition is one timed topology transition in a
// ReconfigSpec: the target graph, the absolute drain time, optional
// stage-window overrides, and an optional validation hook that can veto
// the commit (forcing a rollback).
type ReconfigTransition = reconfig.Transition

// ReconfigReport summarises a reconfiguration run (available as
// RunResult.Reconfig).
type ReconfigReport = telemetry.ReconfigReport

// TransitionRecord is the lifecycle of one topology transition in a
// ReconfigReport.
type TransitionRecord = telemetry.TransitionRecord

// MeasureFCT buckets a finished flow schedule into FCT/slowdown
// percentiles per flow-size bucket.
var MeasureFCT = telemetry.MeasureFCT
