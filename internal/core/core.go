// Package core orchestrates complete SDT experiments: it couples the
// controller-managed projection pipeline with the packet-level engine
// so the same workload can be evaluated on the two fabrics the paper
// compares (§VI):
//
//   - FullTestbed: the logical topology simulated with one crossbar per
//     logical switch — the reference the paper measures SDT against.
//   - SDT: the logical topology projected onto physical switches; the
//     sub-switches share their host's crossbar and pay the projected
//     pipeline overhead; evaluation time additionally includes the
//     controller's deployment time (RunResult.Deploy).
//
// The paper's third platform, the software simulator, is this package
// itself: its evaluation time is the host wall clock a FullTestbed run
// burns (RunResult.Wall), the quantity Fig. 13 shows exploding with
// scale.
package core

import (
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/projection"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Mode selects the evaluation platform.
type Mode int

const (
	// FullTestbed is the physically cabled reference.
	FullTestbed Mode = iota
	// SDT is the projected testbed.
	SDT
)

// Simulator is FullTestbed under its former name: a software simulator
// runs the full-testbed fabric, and only its wall clock differs. The
// benchmark module (bench/flowxl.go) still names it; the alias goes
// when that module next changes.
const Simulator = FullTestbed

// String names the mode as in the paper.
func (m Mode) String() string {
	if m == SDT {
		return "SDT"
	}
	return "Full Testbed"
}

// Testbed is an SDT deployment ready to run experiments.
type Testbed struct {
	Ctl *controller.Controller
	Cfg netsim.Config

	deploying sync.Mutex // serialises ensureDeployment
}

// NewTestbed plans cabling for the given topologies over the switches
// and returns a testbed (the paper's default is three H3C S6861s).
func NewTestbed(switches []projection.PhysicalSwitch, topos []*topology.Graph) (*Testbed, error) {
	ctl, err := controller.NewFromTopologies(switches, topos)
	if err != nil {
		return nil, err
	}
	return &Testbed{Ctl: ctl, Cfg: netsim.DefaultConfig()}, nil
}

// PaperTestbed builds the paper's cluster: 3 H3C S6861 switches.
func PaperTestbed(topos []*topology.Graph) (*Testbed, error) {
	return NewTestbed([]projection.PhysicalSwitch{
		projection.H3CS6861("s6861-a"),
		projection.H3CS6861("s6861-b"),
		projection.H3CS6861("s6861-c"),
	}, topos)
}

// RunResult reports one workload execution.
type RunResult struct {
	// ACT is the application completion time in simulated (i.e.
	// physical) time.
	ACT netsim.Time
	// Wall is the wall-clock time the engine burned — a software
	// simulator's evaluation time. At packet fidelity it covers the
	// event loop; at flow fidelity the whole flow-level run: grouping
	// the schedule, building the routes toward its destinations,
	// walking its paths and the fluid loop, since the route build and
	// the walk interleave block by block.
	Wall time.Duration
	// Deploy is the modelled topology deployment time (SDT only); an
	// SDT evaluation takes Deploy + ACT.
	Deploy time.Duration
	// Fabric health counters.
	Drops, Pauses, EcnMarks int64
	Events                  int64

	// Fault-run results (zero / nil unless the scenario carried a
	// faults.Spec).
	//
	// FaultDrops counts packets lost to dead links.
	FaultDrops int64
	// Incomplete counts open-loop flows that never finished (packet
	// loss is non-fatal for Flows scenarios under faults; ACT then
	// reports the last completed flow).
	Incomplete int
	// Faults is the record of each event a scenario's faults.Spec
	// scheduled — repair time, churn, reconvergence — in schedule
	// order (nil without a spec).
	Faults []faults.Record
	// Reconfig is the record of each transition a scenario's
	// reconfig.Spec scheduled, in spec order (empty otherwise).
	// FaultDrops and Incomplete above then count the drain windows'
	// losses.
	Reconfig []reconfig.Stage
}

// Network builds the netsim fabric for a topology in the given mode,
// returning the network plus the SDT deployment when applicable. The
// caller drives traffic and runs the simulation.
func (tb *Testbed) Network(g *topology.Graph, strat routing.Strategy, mode Mode) (*netsim.Network, *controller.Deployment, error) {
	return tb.network(g, strat, mode, tb.Cfg)
}

// network is Network with an explicit fabric configuration — the
// Scenario.SimConfig override path, which must not mutate tb.Cfg.
func (tb *Testbed) network(g *topology.Graph, strat routing.Strategy, mode Mode, cfg netsim.Config) (*netsim.Network, *controller.Deployment, error) {
	if strat == nil {
		strat = routing.ForTopology(g)
	}
	var routes *routing.Routes
	var crossbarOf func(int) int
	var dep *controller.Deployment
	sdtExtra := false
	if mode == SDT {
		// The deployment carries the compiled routes; computing them
		// from strat here would be discarded work on the sweep hot path.
		var err error
		if dep, err = tb.ensureDeployment(g, strat); err != nil {
			return nil, nil, err
		}
		crossbarOf = dep.Plan.CrossbarOf
		sdtExtra = true
		routes = dep.Routes
	} else {
		var err error
		if routes, err = strat.Compute(g); err != nil {
			return nil, nil, err
		}
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), cfg, crossbarOf, sdtExtra)
	if err != nil {
		return nil, nil, err
	}
	return net, dep, nil
}

// ensureDeployment returns the live SDT deployment for g, deploying it
// first if needed. The testbed's lock serialises the deploys of
// concurrent runs on one testbed, so g is deployed once; Sweep also
// calls this serially before its fan-out, so a sweep's deploy errors
// come first.
func (tb *Testbed) ensureDeployment(g *topology.Graph, strat routing.Strategy) (*controller.Deployment, error) {
	tb.deploying.Lock()
	defer tb.deploying.Unlock()
	dep := tb.Ctl.Deployment(g.Name)
	if dep == nil {
		var err error
		if dep, err = tb.Ctl.Deploy(g, controller.Options{Strategy: strat}); err != nil {
			return nil, err
		}
	}
	return dep, nil
}

// PickSpread deterministically selects n hosts spread across the list
// ("randomly select the nodes but keep the same among all the
// evaluations", §VI-D) — the placement Run uses when Scenario.Hosts is
// nil, exported so callers that must know the placement up front (e.g.
// faults-flap locating the incast victim's uplink) share one
// implementation. Asking for at least as many hosts as exist returns
// the whole list.
func PickSpread(all []int, n int) []int {
	if n >= len(all) {
		return all
	}
	out := make([]int, 0, n)
	step := float64(len(all)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}
