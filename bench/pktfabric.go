package main

import (
	"context"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// pktFabric is the pkt-fabric workload: one open-loop web-search
// schedule through the packet engine on a full-testbed fat-tree.
type pktFabric struct {
	schedule
	sc scale

	act    netsim.Time     // last cell's completion time: the traced loop's horizon
	routes *routing.Routes // the traced cell's route set, for micro
	hosts  []int
}

func newPktFabric(sc scale, seed int64) (runner, error) {
	sched, err := newSchedule(loadgen.Spec{
		Ranks: sc.fabricRanks, Pattern: loadgen.Uniform(),
		Sizes: loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/4),
		Load:  0.6, Flows: sc.fabricFlows,
	}, seed)
	return &pktFabric{schedule: sched, sc: sc}, err
}

// fctBuckets and fctBase parameterise MeasureFCT as the loadgen
// experiments do: short/medium/long buckets, and the zero-load latency
// of the shortest possible path as the slowdown base.
func fctBuckets() []int { return []int{10 * 1024, 100 * 1024} }

func fctBase(cfg netsim.Config) netsim.Time {
	return 2*cfg.HostLatency + cfg.SwitchLatency + 2*cfg.PropDelay
}

// flowsReport checks and digests a finished open-loop schedule.
func flowsReport(g *gate, d *digest, flows []netsim.Flow, rep *telemetry.FCTReport) {
	incomplete := 0
	for i := range flows {
		if !flows[i].Completed {
			incomplete++
		}
		d.add("flow", int64(flows[i].End))
	}
	g.ops(len(flows), incomplete, "flows did not complete")
	g.op(rep.Completed == rep.Total, "FCT report covers %d of %d flows", rep.Completed, rep.Total)
}

func (w *pktFabric) cell(g *gate) string {
	d := newDigest()
	topo := topology.FatTree(w.sc.fabricK)
	if !g.err(topo.Validate(), "Graph.Validate") {
		return d.sum()
	}
	// FullTestbed mode never consults the controller, so the testbed
	// is just the fabric configuration.
	tb := &core.Testbed{Cfg: w.cfg}
	res, err := core.Run(context.Background(), tb, core.Scenario{Topo: topo, Flows: w.flows, Mode: core.FullTestbed})
	if !g.err(err, "core.Run") {
		return d.sum()
	}
	rep := telemetry.MeasureFCT(w.flows, w.cfg.LinkBps, fctBase(w.cfg), fctBuckets())
	w.act = res.ACT
	g.op(res.Drops == 0, "%d drops on the PFC fabric", res.Drops)
	d.add("fabric", int64(res.ACT), res.Drops, res.Pauses, res.EcnMarks)
	flowsReport(g, d, w.flows, rep)
	return d.sum()
}

func (w *pktFabric) traced(tr *tracer, g *gate, lm layerMetrics) string {
	d := newDigest()
	var topo *topology.Graph
	tr.do("topology.build", func() { topo = topology.FatTree(w.sc.fabricK) })
	var err error
	tr.do("topology.validate", func() { err = topo.Validate() })
	if !g.err(err, "Graph.Validate") {
		return d.sum()
	}
	var routes *routing.Routes
	tr.do("routing.compute", func() { routes, err = routing.ForTopology(topo).Compute(topo) })
	if !g.err(err, "Strategy.Compute") {
		return d.sum()
	}
	tr.do("routing.prime", func() { routes.Prime() })
	hosts := core.PickSpread(topo.Hosts(), w.sc.fabricRanks)
	var net *netsim.Network
	var app *netsim.FlowApp
	tr.do("netsim.build", func() {
		if net, err = netsim.NewNetwork(topo, netsim.NewRouteForwarder(routes), w.cfg, nil, false); err == nil {
			app = netsim.NewFlowApp(net, hosts, w.flows, nil)
		}
	})
	if !g.err(err, "netsim.NewNetwork") {
		return d.sum()
	}
	var ls loopStats
	tr.do("netsim.loop", func() {
		app.Start()
		ls.runSliced(net.Sim, w.act, true)
	})
	var rep *telemetry.FCTReport
	tr.do("telemetry.measure", func() {
		rep = telemetry.MeasureFCT(w.flows, w.cfg.LinkBps, fctBase(w.cfg), fctBuckets())
	})
	g.op(net.TotalDrops == 0, "%d drops on the PFC fabric", net.TotalDrops)
	d.add("fabric", int64(app.ACT()), net.TotalDrops, net.PausesSent, net.EcnMarks)
	flowsReport(g, d, w.flows, rep)

	w.routes, w.hosts = routes, hosts
	ls.record(lm)
	lm["routing.rules"] = float64(len(routes.Rules))
	lm["netsim.pauses"] = float64(net.PausesSent)
	lm["netsim.drops"] = float64(net.TotalDrops)
	lm["netsim.ecn_marks"] = float64(net.EcnMarks)
	return d.sum()
}

func (w *pktFabric) micro(g *gate, lm layerMetrics) {
	if w.routes == nil {
		return // the traced cell failed and said why
	}
	engineMicro(lm, w.sc.microOps, false)
	fibMicro(g, lm, w.sc.microOps, w.routes, w.routes.Topo.Hosts(), true)
	// Events per packet-hop: how many engine events the fabric spends
	// moving one packet across one switch.
	var pktHops int64
	for i := range w.flows {
		f := &w.flows[i]
		path, err := w.routes.TracePath(w.hosts[f.Src], w.hosts[f.Dst])
		if err != nil {
			g.err(err, "Routes.TracePath")
			return
		}
		pkts := (f.Bytes + w.cfg.MTU - 1) / w.cfg.MTU
		pktHops += int64(pkts * len(path))
	}
	if pktHops > 0 {
		lm["netsim.events_per_pkt_hop"] = lm["engine.events"] / float64(pktHops)
	}
}
