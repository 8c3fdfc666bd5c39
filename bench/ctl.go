package main

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/costmodel"
	"repro/internal/openflow"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ctl is the ctl-reconfig workload: one control-plane round with no
// simulation — (a) will-it-fit planning over the topology zoo, (b) a
// reconfiguration tour of the paper's topologies on one cluster, (c)
// two large topologies each deployed on a cluster sized for it.
type ctl struct {
	sc      scale
	seed    int64
	profile []wanSize // the zoo's size distribution, the same for every seed
	zoo     []*topology.Graph

	deployed []*replicaDep // the traced cell's deployments, for micro
}

// wanSize is one zoo graph's switch count and links beyond a spanning
// tree.
type wanSize struct{ n, extra int }

// zooProfileSeed fixes the sizes of the zoo graphs. The 261 sizes are
// long-tailed — the largest tenth of the graphs is most of the
// planning work — so a zoo redrawn per seed would make the round's
// cost swing by a tenth from seed to seed. The seed therefore redraws
// every graph's wiring and leaves the sizes alone.
const zooProfileSeed = 41

func newCtl(sc scale, seed int64) (runner, error) {
	w := &ctl{sc: sc, seed: seed}
	for _, z := range topology.Zoo(zooProfileSeed)[:sc.zooGraphs] {
		n := z.NumSwitches()
		w.profile = append(w.profile, wanSize{n: n, extra: len(z.SwitchSwitchEdges()) - (n - 1)})
	}
	return w, nil
}

func (w *ctl) setup(tr *tracer) error {
	// The zoo is input; the tour's regular topologies are part of the
	// round (a user's config file names a generator).
	tr.do("topology.zoo", func() {
		w.zoo = w.zoo[:0]
		for i, p := range w.profile {
			w.zoo = append(w.zoo, topology.RandomWAN(fmt.Sprintf("zoo-%03d", i), p.n, p.extra, w.seed*1_000_003+int64(i)))
		}
	})
	return nil
}

// h3cCluster returns n of the paper's switches.
func h3cCluster(n int) []projection.PhysicalSwitch {
	sw := make([]projection.PhysicalSwitch, n)
	for i := range sw {
		sw[i] = projection.H3CS6861(fmt.Sprintf("s6861-%d", i))
	}
	return sw
}

// clusterSizedFor returns enough H3C-class switches to host g: its
// port demand over 88-port switches plus one spare, at least the
// paper's three (the sizing rule of the Table IV experiment).
func clusterSizedFor(g *topology.Graph) []projection.PhysicalSwitch {
	need := g.SwitchPortCount() + g.HostFacingPorts()
	count := (need+87)/88 + 1
	if count < 3 {
		count = 3
	}
	return h3cCluster(count)
}

// zooSwitches is the cluster size the projectability scan allows, as
// in Table II.
const zooSwitches = 3

// zooReport counts and digests the projectability scan: per graph, its
// wiring (so that the digest names the input) and whether it fits. A
// check cannot fail — "does not fit" is an answer — but a graph whose
// ports all fit one switch and that is still refused would be a
// planner bug, so that is the scan's correctness condition.
func (w *ctl) zooReport(g *gate, d *digest, fits []bool) {
	refused := 0
	for i, z := range w.zoo {
		wiring := int64(0)
		for _, e := range z.Edges {
			wiring = wiring*31 + int64(e.A)*1009 + int64(e.B)
		}
		fit := int64(0)
		if fits[i] {
			fit = 1
		} else if z.SwitchPortCount()+z.HostFacingPorts() <= projection.H3CS6861("").Ports {
			refused++
		}
		d.add("zoo", wiring, fit)
	}
	g.ops(len(w.zoo), refused, "graphs that fit one switch were refused")
}

// depReport checks and digests one deployment.
func depReport(g *gate, d *digest, name string, plan *projection.Plan, rules, entries int, deployTime time.Duration) {
	err := plan.Check()
	g.op(err == nil && entries > 0, "deployment of %s: Plan.Check=%v entries=%d", name, err, entries)
	d.add("deploy "+name, int64(rules), int64(entries), int64(deployTime), int64(plan.Parts.K), int64(plan.Parts.CutEdges))
}

func (w *ctl) cell(g *gate) string {
	d := newDigest()
	fits := make([]bool, len(w.zoo))
	for i, z := range w.zoo {
		fits[i] = projection.Projectable(z, projection.H3CS6861("s6861"), projection.MethodSDT, zooSwitches)
	}
	w.zooReport(g, d, fits)

	report := func(dep *controller.Deployment) {
		depReport(g, d, dep.Name, dep.Plan, len(dep.Routes.Rules), dep.Entries, dep.DeployTime)
	}
	tour := w.sc.tour()
	c, err := controller.NewFromTopologies(h3cCluster(w.sc.ctlSwitches), tour)
	if !g.err(err, "controller.NewFromTopologies") {
		return d.sum()
	}
	dep, err := c.Deploy(tour[0], controller.Options{})
	if !g.err(err, "Controller.Deploy "+tour[0].Name) {
		return d.sum()
	}
	report(dep)
	for _, next := range tour[1:] {
		if dep, err = c.Reconfigure(dep.Name, next, controller.Options{}); !g.err(err, "Controller.Reconfigure "+next.Name) {
			return d.sum()
		}
		report(dep)
	}
	if !g.err(c.Teardown(dep.Name), "Controller.Teardown") {
		return d.sum()
	}
	d.add("left", int64(c.EntryCount()))

	for _, big := range w.sc.big() {
		c, err := controller.NewFromTopologies(clusterSizedFor(big), []*topology.Graph{big})
		if !g.err(err, "controller.NewFromTopologies "+big.Name) {
			return d.sum()
		}
		dep, err := c.Deploy(big, controller.Options{})
		if !g.err(err, "Controller.Deploy "+big.Name) {
			return d.sum()
		}
		report(dep)
	}
	return d.sum()
}

// --- the controller, call by call -----------------------------------

// ctlReplica keeps the bookkeeping controller.Controller keeps — the
// cabling, the physical tables, the link allocation, the cookie and
// tag counters — so that a deployment can be re-executed through the
// public functions Deploy calls, with a span around each.
type ctlReplica struct {
	cab         *projection.Cabling
	physical    []*openflow.Switch
	alloc       *projection.Allocation
	nextCookie  uint64
	nextTagBase int
}

// replicaDep is what Deploy's record holds.
type replicaDep struct {
	topo       *topology.Graph
	plan       *projection.Plan
	routes     *routing.Routes
	cookie     uint64
	entries    int
	deployTime time.Duration
}

// newCtlReplica is controller.NewFromTopologies: plan the cabling,
// then build the controller's switches and allocation over it.
func newCtlReplica(tr *tracer, switches []projection.PhysicalSwitch, topos []*topology.Graph) (*ctlReplica, error) {
	id := tr.begin("controller.new")
	defer tr.end(id)
	var cab *projection.Cabling
	var err error
	tr.do("projection.plan_cabling", func() { cab, err = projection.PlanCabling(switches, topos, partition.Options{}) })
	if err != nil {
		return nil, err
	}
	c := &ctlReplica{cab: cab, alloc: projection.NewAllocation(cab)}
	for _, spec := range cab.Switches {
		c.physical = append(c.physical, openflow.NewSwitch(spec.ID, spec.Ports, spec.TableCap))
	}
	return c, nil
}

// deploy is Controller.Deploy with default options.
func (c *ctlReplica) deploy(tr *tracer, g *topology.Graph, strat routing.Strategy) (*replicaDep, error) {
	id := tr.begin("controller.deploy")
	defer tr.end(id)
	var plan *projection.Plan
	var err error
	tr.do("projection.project", func() { plan, err = projection.ProjectInto(g, c.cab, c.alloc, partition.Options{}) })
	if err != nil {
		return nil, err
	}
	if strat == nil {
		strat = routing.ForTopology(g)
	}
	var routes *routing.Routes
	tr.do("routing.compute", func() { routes, err = strat.Compute(g) })
	if err != nil {
		return nil, err
	}
	cookie := c.nextCookie + 1
	tr.do("projection.compile_tables", func() {
		_, err = projection.CompileFlowTables(plan, routes, projection.CompileOptions{
			Cookie: cookie, TagBase: c.nextTagBase, Into: c.physical,
		})
	})
	if err != nil {
		return nil, err
	}
	c.nextCookie = cookie
	c.nextTagBase += projection.TagSpace(plan, routes)
	tr.do("routing.prime", func() { routes.Prime() })
	tr.do("openflow.table_prime", func() {
		for _, sw := range c.physical {
			sw.Table.Prime()
		}
	})
	entries := 0
	for _, sw := range c.physical {
		for _, e := range sw.Table.Entries() {
			if e.Cookie == cookie {
				entries++
			}
		}
	}
	return &replicaDep{
		topo: g, plan: plan, routes: routes, cookie: cookie, entries: entries,
		deployTime: costmodel.ReconfigTime(projection.Requirement{Method: projection.MethodSDT}, entries),
	}, nil
}

// teardown is Controller.Teardown.
func (c *ctlReplica) teardown(tr *tracer, dep *replicaDep) {
	tr.do("controller.teardown", func() {
		for _, sw := range c.physical {
			sw.Table.RemoveCookie(dep.cookie)
		}
		dep.plan.Release(c.alloc)
	})
}

func (c *ctlReplica) entryCount() int { return projection.EntryCount(c.physical) }

func (w *ctl) traced(tr *tracer, g *gate, lm layerMetrics) string {
	d := newDigest()
	fits := make([]bool, len(w.zoo))
	tr.do("projection.projectable", func() {
		for i, z := range w.zoo {
			fits[i] = projection.Projectable(z, projection.H3CS6861("s6861"), projection.MethodSDT, zooSwitches)
		}
	})
	w.zooReport(g, d, fits)

	w.deployed = nil
	report := func(dep *replicaDep) {
		depReport(g, d, dep.topo.Name, dep.plan, len(dep.routes.Rules), dep.entries, dep.deployTime)
		w.deployed = append(w.deployed, dep)
	}
	var tour []*topology.Graph
	tr.do("topology.build", func() { tour = w.sc.tour() })
	c, err := newCtlReplica(tr, h3cCluster(w.sc.ctlSwitches), tour)
	if !g.err(err, "PlanCabling") {
		return d.sum()
	}
	dep, err := c.deploy(tr, tour[0], nil)
	if !g.err(err, "deploy "+tour[0].Name) {
		return d.sum()
	}
	report(dep)
	for _, next := range tour[1:] {
		id := tr.begin("controller.reconfigure")
		c.teardown(tr, dep)
		dep, err = c.deploy(tr, next, nil)
		tr.end(id)
		if !g.err(err, "reconfigure "+next.Name) {
			return d.sum()
		}
		report(dep)
	}
	c.teardown(tr, dep)
	d.add("left", int64(c.entryCount()))

	var bigs []*topology.Graph
	tr.do("topology.build", func() { bigs = w.sc.big() })
	for _, big := range bigs {
		c, err := newCtlReplica(tr, clusterSizedFor(big), []*topology.Graph{big})
		if !g.err(err, "PlanCabling "+big.Name) {
			return d.sum()
		}
		dep, err := c.deploy(tr, big, nil)
		if !g.err(err, "deploy "+big.Name) {
			return d.sum()
		}
		report(dep)
	}
	deployMetrics(lm, w.deployed)
	return d.sum()
}

// deployMetrics records the exact counts of a cell's deployments.
func deployMetrics(lm layerMetrics, deps []*replicaDep) {
	for _, dep := range deps {
		lm["routing.rules"] += float64(len(dep.routes.Rules))
		lm["projection.entries"] += float64(dep.entries)
		lm["controller.model_deploy_ms"] += float64(dep.deployTime) / float64(time.Millisecond)
	}
}

func (w *ctl) micro(g *gate, lm layerMetrics) {
	cutMicro(g, lm, w.deployed)
	addMicro(g, lm, w.deployed)
}

// cutMicro times the partitioner directly: for every deployed
// topology, Cut at each part count the projection tried on the way to
// the planned one. cut_edges sums the planned partitions' cuts — the
// partition quality a faster partitioner must not give up.
func cutMicro(g *gate, lm layerMetrics, deps []*replicaDep) {
	calls, edges := 0, 0
	sec := timed(func() {
		for _, dep := range deps {
			for k := 1; k <= dep.plan.Parts.K; k++ {
				res, err := partition.Cut(dep.topo, k, partition.Options{})
				calls++
				if err != nil {
					g.err(err, "partition.Cut")
					return
				}
				if k == dep.plan.Parts.K {
					edges += res.CutEdges
				}
			}
		}
	})
	lm["partition.cut_s"] = sec
	lm["partition.cut_calls"] = float64(calls)
	lm["partition.cut_edges"] = float64(edges)
}

// addMicro times openflow.Table.Add alone: every deployment's entries,
// switch by switch in table order, into fresh tables.
func addMicro(g *gate, lm layerMetrics, deps []*replicaDep) {
	entries, sec := 0, 0.0
	for _, dep := range deps {
		switches, err := projection.CompileFlowTables(dep.plan, dep.routes, projection.CompileOptions{Cookie: 1})
		if !g.err(err, "CompileFlowTables") {
			return
		}
		entries += projection.EntryCount(switches)
		sec += timed(func() {
			for _, sw := range switches {
				var t openflow.Table
				for _, e := range sw.Table.Entries() {
					if err := t.Add(*e); err != nil {
						g.err(err, "Table.Add")
						return
					}
				}
			}
		})
	}
	if entries > 0 {
		lm["openflow.add_us_per_entry"] = sec * 1e6 / float64(entries)
	}
}
