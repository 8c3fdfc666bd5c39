package main

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

// sdtApps is the pkt-sdt-apps workload: the paper's cluster, a
// dragonfly deployed on it in SDT mode, closed-loop MPI traces
// replayed over the projection, then the cluster reconfigured to a
// chain for a TCP incast (Fig. 12) — the paper's own evaluation path.
type sdtApps struct {
	sc     scale
	seed   int64
	cfg    netsim.Config
	traces []*workload.Trace

	acts []netsim.Time // last cell's ACT per trace: the traced loops' horizons
	deps []*replicaDep // the traced cell's deployments, for micro
}

func newSdtApps(sc scale, seed int64) (runner, error) {
	return &sdtApps{sc: sc, seed: seed, cfg: netsim.DefaultConfig()}, nil
}

func (w *sdtApps) setup(tr *tracer) error {
	w.traces = w.traces[:0]
	for _, name := range w.sc.apps {
		var t *workload.Trace
		var err error
		tr.do("workload.trace_build", func() { t, err = workload.ByName(name, w.sc.appRanks) })
		if err != nil {
			return err
		}
		w.traces = append(w.traces, t)
	}
	return nil
}

func dragonfly() *topology.Graph { return topology.Dragonfly(4, 9, 2, 1) }
func chain() *topology.Graph     { return topology.Line(8, 1) }

// placement is the seed's share of this workload's inputs: which hosts
// the ranks run on, and which chain node the incast converges on (seed
// 1 gives the paper's node 4).
func (w *sdtApps) placement(df, line *topology.Graph) (ranks []int, target int) {
	n := len(line.Hosts())
	return pickHosts(df.Hosts(), w.sc.appRanks, w.seed), int(((w.seed+2)%int64(n) + int64(n)) % int64(n))
}

// startIncast opens one TCP stream from every other chain host to the
// target, in host order.
func startIncast(net *netsim.Network, hosts []int, target int) []*netsim.TCPConn {
	var conns []*netsim.TCPConn
	for i, h := range hosts {
		if i != target {
			conns = append(conns, net.StartTCP(h, hosts[target], -1, nil))
		}
	}
	return conns
}

// incastReport checks and digests the incast: every stream moved data
// and the lossless fabric dropped nothing.
func incastReport(g *gate, d *digest, net *netsim.Network, conns []*netsim.TCPConn) {
	stalled := 0
	for _, c := range conns {
		if c.RcvBytes == 0 {
			stalled++
		}
		d.add("tcp", c.RcvBytes)
	}
	g.ops(len(conns), stalled, "TCP streams delivered nothing")
	g.op(net.TotalDrops == 0, "%d drops on the PFC chain", net.TotalDrops)
	d.add("chain", net.TotalDrops, net.PausesSent, net.EcnMarks)
}

func (w *sdtApps) cell(g *gate) string {
	d := newDigest()
	df, line := dragonfly(), chain()
	if !g.err(df.Validate(), "Graph.Validate") || !g.err(line.Validate(), "Graph.Validate") {
		return d.sum()
	}
	tb, err := core.PaperTestbed([]*topology.Graph{df, line})
	if !g.err(err, "core.PaperTestbed") {
		return d.sum()
	}
	ranks, target := w.placement(df, line)
	w.acts = w.acts[:0]
	for _, tr := range w.traces {
		res, err := core.Run(context.Background(), tb, core.Scenario{Topo: df, Trace: tr, Hosts: ranks, Mode: core.SDT})
		if !g.err(err, "core.Run "+tr.Name) {
			return d.sum()
		}
		g.op(res.Drops == 0, "%s: %d drops on the PFC fabric", tr.Name, res.Drops)
		d.add("app "+tr.Name, int64(res.ACT), res.Drops, res.Pauses, res.EcnMarks)
		w.acts = append(w.acts, res.ACT)
	}
	dep := tb.Ctl.Deployment(df.Name)
	depReport(g, d, dep.Name, dep.Plan, len(dep.Routes.Rules), dep.Entries, dep.DeployTime)

	// The cabling is planned for either topology, not both at once:
	// the chain replaces the dragonfly, as between two experiments.
	if !g.err(tb.Ctl.Teardown(df.Name), "Controller.Teardown") {
		return d.sum()
	}
	net, dep, err := tb.Network(line, routing.ShortestPath{}, core.SDT)
	if !g.err(err, "Testbed.Network") {
		return d.sum()
	}
	depReport(g, d, dep.Name, dep.Plan, len(dep.Routes.Rules), dep.Entries, dep.DeployTime)
	conns := startIncast(net, line.Hosts(), target)
	net.Sim.Run(w.sc.tcpDur)
	incastReport(g, d, net, conns)
	return d.sum()
}

// reference replays the traces on the full testbed — one crossbar per
// logical switch — and holds the SDT completion times of the last cell
// against it: the paper's accuracy claim (deviation within 2–3 %).
func (w *sdtApps) reference(g *gate, lm layerMetrics) {
	df := dragonfly()
	tb := &core.Testbed{Cfg: w.cfg}
	ranks, _ := w.placement(df, chain())
	worst := 0.0
	for i, tr := range w.traces {
		res, err := core.Run(context.Background(), tb, core.Scenario{Topo: df, Trace: tr, Hosts: ranks, Mode: core.FullTestbed})
		if !g.err(err, "core.Run "+tr.Name+" (full testbed)") {
			return
		}
		dev := 100 * math.Abs(float64(w.acts[i]-res.ACT)) / float64(res.ACT)
		g.op(dev <= 3, "%s: SDT ACT deviates %.3f%% from the full testbed", tr.Name, dev)
		worst = math.Max(worst, dev)
	}
	lm["netsim.sdt_act_dev_pct"] = worst
}

func (w *sdtApps) traced(tr *tracer, g *gate, lm layerMetrics) string {
	d := newDigest()
	var df, line *topology.Graph
	tr.do("topology.build", func() { df, line = dragonfly(), chain() })
	var err error
	tr.do("topology.validate", func() {
		if err = df.Validate(); err == nil {
			err = line.Validate()
		}
	})
	if !g.err(err, "Graph.Validate") {
		return d.sum()
	}
	paper := []projection.PhysicalSwitch{
		projection.H3CS6861("s6861-a"), projection.H3CS6861("s6861-b"), projection.H3CS6861("s6861-c"),
	}
	c, err := newCtlReplica(tr, paper, []*topology.Graph{df, line})
	if !g.err(err, "PlanCabling") {
		return d.sum()
	}
	ranks, target := w.placement(df, line)
	dfDep, err := c.deploy(tr, df, nil)
	if !g.err(err, "deploy "+df.Name) {
		return d.sum()
	}
	var ls loopStats
	var pauses, drops, ecn int64
	fabric := func(topo *topology.Graph, dep *replicaDep) (*netsim.Network, error) {
		// What Testbed.Network does for SDT mode: the deployment's
		// primed routes, its crossbar grouping, the per-hop overhead.
		dep.routes.Prime()
		return netsim.NewNetwork(topo, netsim.NewRouteForwarder(dep.routes), w.cfg, dep.plan.CrossbarOf, true)
	}
	tally := func(net *netsim.Network) {
		pauses, drops, ecn = pauses+net.PausesSent, drops+net.TotalDrops, ecn+net.EcnMarks
	}
	for i, t := range w.traces {
		var net *netsim.Network
		var app *netsim.App
		tr.do("netsim.build", func() {
			if net, err = fabric(df, dfDep); err == nil {
				app = netsim.NewApp(net, ranks, t.Programs, nil)
			}
		})
		if !g.err(err, "netsim.NewNetwork") {
			return d.sum()
		}
		tr.do("netsim.loop", func() {
			app.Start()
			ls.runSliced(net.Sim, w.acts[i], true)
		})
		g.op(app.ACT() >= 0, "%s did not complete", t.Name)
		g.op(net.TotalDrops == 0, "%s: %d drops on the PFC fabric", t.Name, net.TotalDrops)
		d.add("app "+t.Name, int64(app.ACT()), net.TotalDrops, net.PausesSent, net.EcnMarks)
		tally(net)
	}
	depReport(g, d, df.Name, dfDep.plan, len(dfDep.routes.Rules), dfDep.entries, dfDep.deployTime)

	c.teardown(tr, dfDep)
	lineDep, err := c.deploy(tr, line, routing.ShortestPath{})
	if !g.err(err, "deploy "+line.Name) {
		return d.sum()
	}
	depReport(g, d, line.Name, lineDep.plan, len(lineDep.routes.Rules), lineDep.entries, lineDep.deployTime)
	var net *netsim.Network
	tr.do("netsim.build", func() { net, err = fabric(line, lineDep) })
	if !g.err(err, "netsim.NewNetwork") {
		return d.sum()
	}
	var conns []*netsim.TCPConn
	tr.do("netsim.loop", func() {
		conns = startIncast(net, line.Hosts(), target)
		ls.runSliced(net.Sim, w.sc.tcpDur, false)
	})
	incastReport(g, d, net, conns)
	tally(net)

	w.deps = []*replicaDep{dfDep, lineDep}
	ls.record(lm)
	deployMetrics(lm, w.deps)
	lm["netsim.pauses"] = float64(pauses)
	lm["netsim.drops"] = float64(drops)
	lm["netsim.ecn_marks"] = float64(ecn)
	return d.sum()
}

func (w *sdtApps) micro(g *gate, lm layerMetrics) {
	if len(w.deps) == 0 {
		return // the traced cell failed and said why
	}
	engineMicro(lm, w.sc.microOps, true)
	df := w.deps[0]
	fibMicro(g, lm, w.sc.microOps, df.routes, df.topo.Hosts(), true)
	cutMicro(g, lm, w.deps)
	addMicro(g, lm, w.deps)
}
