package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/flowsim"
	"repro/internal/loadgen"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// flowXL is the flow-xl workload: one open-loop schedule at flow
// fidelity on a fat-tree far beyond what the packet engine reaches.
type flowXL struct {
	schedule
	sc scale

	routes *routing.Routes // the traced cell's route subset, for micro
	dsts   []int
}

func newFlowXL(sc scale, seed int64) (runner, error) {
	sched, err := newSchedule(loadgen.Spec{
		Ranks: sc.xlRanks, Pattern: loadgen.Uniform(),
		Sizes: loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64),
		Load:  0.5, Flows: sc.xlFlows,
	}, seed)
	return &flowXL{schedule: sched, sc: sc}, err
}

func (w *flowXL) cell(g *gate) string {
	d := newDigest()
	topo := topology.FatTree(w.sc.xlK)
	if !g.err(topo.Validate(), "Graph.Validate") {
		return d.sum()
	}
	// Flow fidelity reads nothing of the testbed but its fabric
	// configuration: a 27k-host fat-tree fits no physical cluster.
	tb := &core.Testbed{Cfg: w.cfg}
	res, err := core.Run(context.Background(), tb, core.Scenario{
		Topo: topo, Flows: w.flows, Mode: core.Simulator, Fidelity: core.Flow,
	})
	if !g.err(err, "core.Run") {
		return d.sum()
	}
	rep := telemetry.MeasureFCT(w.flows, w.cfg.LinkBps, fctBase(w.cfg), fctBuckets())
	d.add("fluid", int64(res.ACT))
	flowsReport(g, d, w.flows, rep)
	return d.sum()
}

func (w *flowXL) traced(tr *tracer, g *gate, lm layerMetrics) string {
	d := newDigest()
	var topo *topology.Graph
	tr.do("topology.build", func() { topo = topology.FatTree(w.sc.xlK) })
	var err error
	tr.do("topology.validate", func() { err = topo.Validate() })
	if !g.err(err, "Graph.Validate") {
		return d.sum()
	}
	hosts := core.PickSpread(topo.Hosts(), w.sc.xlRanks)
	// Routes toward the hosts that receive traffic only, as core's
	// flow path computes them.
	seen := map[int]bool{}
	var dsts []int
	for i := range w.flows {
		if r := w.flows[i].Dst; !seen[r] {
			seen[r] = true
			dsts = append(dsts, hosts[r])
		}
	}
	dc, ok := routing.ForTopology(topo).(routing.DstComputer)
	if !ok {
		g.err(fmt.Errorf("strategy for %s computes no destination subsets", topo.Name), "routing.ForTopology")
		return d.sum()
	}
	var routes *routing.Routes
	tr.do("routing.compute_for", func() { routes, err = dc.ComputeFor(topo, dsts) })
	if !g.err(err, "DstComputer.ComputeFor") {
		return d.sum()
	}
	var res *flowsim.Result
	tr.do("flowsim.run", func() { res, err = flowsim.Run(context.Background(), topo, routes, w.cfg, hosts, w.flows) })
	if !g.err(err, "flowsim.Run") {
		return d.sum()
	}
	var rep *telemetry.FCTReport
	tr.do("telemetry.measure", func() {
		rep = telemetry.MeasureFCT(w.flows, w.cfg.LinkBps, fctBase(w.cfg), fctBuckets())
	})
	d.add("fluid", int64(res.ACT))
	flowsReport(g, d, w.flows, rep)

	w.routes, w.dsts = routes, dsts
	lm["routing.rules"] = float64(len(routes.Rules))
	lm["flowsim.recomputes"] = float64(res.Recomputes)
	lm["flowsim.pairs"] = float64(res.Pairs)
	return d.sum()
}

// fibVertexCap is the fabric size above which flowsim's path walker
// compiles no dense FIB and resolves paths through Routes.Lookup (its
// maxFIBVertices); there the lookup is the only thing to time.
const fibVertexCap = 4096

func (w *flowXL) micro(g *gate, lm layerMetrics) {
	if w.routes == nil {
		return // the traced cell failed and said why
	}
	fibMicro(g, lm, w.sc.microOps, w.routes, w.dsts, len(w.routes.Topo.Vertices) <= fibVertexCap)
}
