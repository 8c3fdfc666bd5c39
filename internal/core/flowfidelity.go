package core

// The flow-level fidelity path: runScenario branches here when a
// scenario selects Fidelity: Flow, handing the open-loop schedule to
// internal/flowsim's fluid engine instead of building a packet-level
// fabric. The scenario surface stays identical — same Scenario, same
// RunResult, same FCT result fields on the Flows slice — which is what
// lets the differential harness and telemetry.MeasureFCT treat the two
// fidelities interchangeably.
//
// The path keeps no route set. flowsim.New groups the schedule into
// its (src, dst) host pairs; routing.ForEachBlock builds the rules
// toward the schedule's destinations a block of them at a time, into
// storage each worker reuses, and flowsim's walkers walk every pair
// toward the block over them with Routes.Walk; then the block's rules
// are dropped. A run's route memory is one block per worker, not
// switches × destinations.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/flowsim"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// runFlowScenario executes one Flow-fidelity scenario. hosts is the
// resolved rank placement (hosts[i] = vertex of rank i). Everything
// the fluid model cannot express was rejected by validateScenario.
// The result's Wall covers the whole flow-level run — grouping the
// schedule, building the routes toward its destinations, walking its
// paths and the fluid loop — since the route build and the walk are
// interleaved block by block.
func runFlowScenario(ctx context.Context, sc Scenario, hosts []int, simCfg netsim.Config) (*RunResult, error) {
	strat := sc.Strategy
	if strat == nil {
		strat = routing.ForTopology(sc.Topo)
	}
	wallStart := time.Now()
	sim, err := flowsim.New(sc.Topo, simCfg, hosts, sc.Flows)
	if err != nil {
		return nil, err
	}
	if err := flowPaths(sim, sc.Topo, strat); err != nil {
		return nil, err
	}
	res, err := sim.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		ACT:    res.ACT,
		Wall:   time.Since(wallStart),
		Events: res.Recomputes,
	}, nil
}

// flowPaths walks the schedule's paths. A Table III strategy
// (routing.DstComputer) builds the rules toward the schedule's
// destinations a block at a time, and the walkers walk each block's
// pairs and drop its rules: no route set is kept, so a run holds one
// block of rules per worker where a subset route set would hold
// switches × destinations (35 MB on a 27k-host fat-tree). Any other
// strategy computes its full route set, which is walked the same way.
func flowPaths(sim *flowsim.Sim, g *topology.Graph, strat routing.Strategy) error {
	dc, ok := strat.(routing.DstComputer)
	if !ok {
		routes, err := strat.Compute(g)
		if err != nil {
			return err
		}
		sim.Walker(1)(routes, sim.Dsts())
		return nil
	}
	if err := routing.ForEachBlock(g, dc, sim.Dsts(), sim.Walker); err != nil {
		return fmt.Errorf("core: flow-fidelity route subset: %w", err)
	}
	return nil
}
