package core

// The flow-level fidelity path: runScenario branches here when a
// scenario selects Fidelity: Flow, handing the open-loop schedule to
// internal/flowsim's fluid engine instead of building a packet-level
// fabric. The scenario surface stays identical — same Scenario, same
// RunResult, same FCT result fields on the Flows slice — which is what
// lets the differential harness and telemetry.MeasureFCT treat the two
// fidelities interchangeably.

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
func runFlowScenario(ctx context.Context, sc Scenario, hosts []int, simCfg netsim.Config) (*RunResult, error) {
	strat := sc.Strategy
	if strat == nil {
		strat = routing.ForTopology(sc.Topo)
	}
	routes, err := flowRoutes(sc.Topo, strat, hosts, sc.Flows)
	if err != nil {
		return nil, err
	}
	wallStart := time.Now()
	res, err := flowsim.Run(ctx, sc.Topo, routes, simCfg, hosts, sc.Flows)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Mode:   sc.Mode,
		ACT:    res.ACT,
		Wall:   time.Since(wallStart),
		Events: res.Recomputes,
	}, nil
}

// flowRoutes computes the route set a flow-level run resolves paths
// over. Every Table III strategy supports per-destination subset
// computation (routing.DstComputer), and a fluid run only needs rules
// toward hosts that actually receive traffic — on a 10k-host fat-tree
// the full route set alone would dwarf the simulation, so the subset
// computation is what makes XL fabrics tractable. Strategies outside
// the interface fall back to a full compute.
func flowRoutes(g *topology.Graph, strat routing.Strategy, hosts []int, flows []netsim.Flow) (*routing.Routes, error) {
	dc, ok := strat.(routing.DstComputer)
	if !ok {
		return strat.Compute(g)
	}
	seen := make(map[int]bool, len(hosts))
	dsts := make([]int, 0, len(hosts))
	for i := range flows {
		d := flows[i].Dst
		// Out-of-range ranks fall through to flowsim's validation,
		// which names the offending flow.
		if d >= 0 && d < len(hosts) && !seen[d] {
			seen[d] = true
			dsts = append(dsts, hosts[d])
		}
	}
	routes, err := dc.ComputeFor(g, dsts)
	if err != nil {
		return nil, fmt.Errorf("core: flow-fidelity route subset: %w", err)
	}
	return routes, nil
}
