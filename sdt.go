// Package sdt is the public facade of the SDT (Software Defined
// Topology Testbed) library — a reproduction of Chen et al., "SDT: A
// Low-cost and Topology-reconfigurable Testbed for Network Research"
// (IEEE CLUSTER 2023).
//
// The facade re-exports the entry points the examples and the facade
// tests use: building logical topologies, planning a physical cabling,
// projecting topologies onto commodity OpenFlow switches via Link
// Projection, computing Table III routing strategies with verified
// deadlock freedom, and running workloads on the packet-level engine
// on the full testbed or on SDT.
//
// Execution goes through one composable surface: a Scenario carries
// every knob that changes a simulated byte (topology, workload, mode,
// host placement, strategy, sim-config, faults, reconfiguration,
// fidelity) and is run with Run(ctx, tb, scenario, ...Option), or
// fanned out one simulation per worker with Sweep(ctx, jobs,
// ...Option). Options only observe and schedule — WithObserver,
// WithTelemetry, WithWorkers — and the context cancels cooperatively
// inside the event loop, so a cancelled run or sweep stops
// mid-simulation, not between jobs:
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
// Workloads come in two families (WORKLOADS.md is the catalogue):
// closed-loop MPI trace replay via Scenario.Trace, and open-loop
// synthetic traffic via Scenario.Flows — seeded Poisson flow arrivals
// at a target load factor under a traffic pattern and a flow-size
// distribution:
//
//	fs := sdt.LoadSpec{
//		Ranks: 16, Load: 0.5, Flows: 10_000,
//		Pattern: sdt.PatternUniform(), Sizes: sdt.WebSearchSizes(),
//		Seed: 7,
//	}.MustGenerate()
//	res, err := sdt.Run(ctx, tb, sdt.Scenario{Topo: topo, Flows: fs.Flows})
//	fct := sdt.MeasureFCT(fs.Flows, 10e9, 0, nil) // per-bucket p50/p95/p99
//
// Scenario{..., Fidelity: sdt.FidelityFlow} runs an open-loop schedule
// through a max-min fair-share fluid approximation whose cost grows
// with the number of flows instead of bytes × hops. A Scenario can also
// carry a FaultSpec (seeded link failures, repaired by the controller's
// reroute; RunResult.Faults records them) or a ReconfigSpec (live
// topology transitions by the staged drain→transition→reconverge
// protocol; RunResult.Reconfig reports them).
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

// Topology generators; TopologyConfig builds the rest of the paper's
// Fig. 1 set by generator name.
var (
	FatTree     = topology.FatTree
	Dragonfly   = topology.Dragonfly
	Torus2D     = topology.Torus2D
	Line        = topology.Line
	TopologyZoo = topology.Zoo
)

// PhysicalSwitch describes one commodity OpenFlow switch.
type PhysicalSwitch = projection.PhysicalSwitch

// Projection entry points.
var (
	H3CS6861    = projection.H3CS6861
	PlanCabling = projection.PlanCabling
	Project     = projection.Project
)

// PartitionOptions is the multilevel topology partitioner's (§IV-C)
// options argument. It has no fields: the partitioner has one objective
// (fewest cut links, ports balanced within 10 %) and a fixed seed.
type PartitionOptions = partition.Options

// Routes is a computed forwarding rule set (a Table III strategy's
// output).
type Routes = routing.Routes

// FixedRoutes adapts an already-computed route set into a Strategy,
// so a Scenario can carry routes produced outside a strategy (e.g.
// the Network Monitor's UGAL active routes).
type FixedRoutes = routing.Fixed

// Routing constructors and helpers.
var (
	StrategyFor        = routing.ForTopology
	VerifyDeadlockFree = routing.VerifyDeadlockFree
)

// ControllerOptions tunes one deployment.
type ControllerOptions = controller.Options

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

// Mode selects the evaluation platform.
type Mode = core.Mode

// Evaluation platforms.
const (
	ModeFullTestbed = core.FullTestbed
	ModeSDT         = core.SDT
)

// Fidelity selects how faithfully a run simulates the fabric: the
// packet-level engine (the zero value) or the flow-level max-min
// fair-share fluid approximation, whose cost scales with flow count
// instead of bytes × hops. Flow fidelity covers open-loop flow
// schedules on FullTestbed runs; traces, faults, reconfiguration,
// SDT mode, and observers reject it loudly.
type Fidelity = core.Fidelity

// Simulation fidelities.
const (
	FidelityPacket = core.Packet
	FidelityFlow   = core.Flow
)

// PaperTestbed builds the paper's testbed (§VI-A1: three H3C S6861
// switches) cabled for topos.
var PaperTestbed = core.PaperTestbed

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
	Microsecond = netsim.Microsecond
	Millisecond = netsim.Millisecond
)

// DefaultSimConfig is the paper-calibrated configuration: PFC on, no
// congestion control. A caller sets PFC and CC (ECN marking follows
// CC is "dcqcn"); the rest models the paper's fixed hardware.
var DefaultSimConfig = netsim.DefaultConfig

// Workload generators; WorkloadByName builds the §VI-D applications.
var (
	PingpongTrace  = workload.Pingpong
	AlltoallTrace  = workload.Alltoall
	WorkloadByName = workload.ByName
)

// Flow is one open-loop transfer: rank-indexed endpoints, a size, an
// absolute start time, and — after a run — its completion result.
type Flow = netsim.Flow

// LoadSpec describes one synthetic open-loop workload: ranks, target
// load factor, pattern, size distribution, flow count, and seed.
// Equal specs generate byte-identical schedules.
type LoadSpec = loadgen.Spec

// Traffic patterns and flow-size distributions (the loadgen catalogue;
// see WORKLOADS.md).
var (
	PatternUniform = loadgen.Uniform
	PatternHotspot = loadgen.Hotspot
	FixedSize      = loadgen.FixedSize
	WebSearchSizes = loadgen.WebSearch
	ScaleSizes     = loadgen.ScaleSizes
)

// FCTReport is the bucketed flow-completion-time summary of a finished
// open-loop run: per size bucket, FCT and slowdown percentiles.
type FCTReport = telemetry.FCTReport

// FaultSpec schedules link failures during a run: one-shot timed
// events plus seeded MTBF/MTTR flap processes. Attach one via
// Scenario.Faults — dead links drop the packets queued for them and in
// flight on them, the controller reroute patches the live FIB after
// the spec's repair latency, and the RunResult carries FaultDrops,
// Incomplete, and one Faults record per event. Equal specs expand to
// byte-identical schedules.
type FaultSpec = faults.Spec

// FaultEvent is one scheduled fault: a kind, a logical edge ID, and an
// absolute simulated time.
type FaultEvent = faults.Event

// Link fault kinds.
const (
	FaultLinkDown = faults.LinkDown
	FaultLinkUp   = faults.LinkUp
)

// PickCoreEdges deterministically selects failable links (switch-switch
// edges only, so destinations stay attached).
var PickCoreEdges = faults.PickCoreEdges

// ReconfigSpec schedules live topology transitions during a run.
// Attach one via Scenario.Reconfig — each transition executes the
// staged drain→transition→reconverge protocol: the physical links the
// target claims drain first (in-flight packets drop, PFC trees unwind),
// the target is then projected, checked, and compiled at the control
// plane with abort-to-rollback on any failure, and finally the fabric
// reconverges while the run result's Reconfig stages record packets
// lost, reconvergence time, rule churn, and the cost-model downtime and
// price columns. Equal specs expand to byte-identical schedules.
// Mutually exclusive with Scenario.Faults.
type ReconfigSpec = reconfig.Spec

// ReconfigTransition is one timed topology transition in a
// ReconfigSpec: the target graph, the absolute drain time, optional
// stage-window overrides, and an optional validation hook that can veto
// the commit (forcing a rollback).
type ReconfigTransition = reconfig.Transition

// MeasureFCT buckets a finished flow schedule into FCT/slowdown
// percentiles per flow-size bucket.
var MeasureFCT = telemetry.MeasureFCT
