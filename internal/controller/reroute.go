package controller

// Rerouter is the reactive controller's failure-handling loop: it
// observes fault events on a running fabric (a faults.Observer), waits
// the modelled detection + recompute + install latency, and then
// patches the live route set around the outage — the routing repair of
// §V-2's reactive flow setup applied to failures instead of new flows.
//
// The repair is routing.RepairAvoiding: destinations whose original
// strategy tree forwards into a dead element are rerouted over
// single-VC shortest paths on the surviving subgraph; healthy
// destinations keep their strategy rules, and recovered elements
// restore the original rules for the destinations they had broken. The
// live Routes object is mutated in place (ReplaceRules), so the
// fabric's RouteForwarder — which re-fetches the memoized FIB on every
// Forward — recompiles the fast path once, on the first packet after
// the repair lands.
//
// The live route set MUST be private to the run (routing.Routes.Clone
// in the fault-run setup): repairs mutate it mid-simulation, and a
// rule set shared with concurrent runs would race.

import (
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Repair records one executed route repair.
type Repair struct {
	// FaultAt is the simulated time of the triggering fault event.
	FaultAt netsim.Time
	// At is the simulated time the repaired routes went live.
	At netsim.Time
	// RulesChanged is the route churn: rules added plus rules removed
	// versus the rule set live before this repair.
	RulesChanged int
	// PatchedDsts is how many destinations run on repair (shortest-
	// path) routes after this repair.
	PatchedDsts int
}

// Rerouter repairs a live route set as faults arrive. Create with
// NewRerouter and register it as a faults.Bind observer. All methods
// run inside the engine thread.
type Rerouter struct {
	// Latency is the detection→install delay between a fault event and
	// its repair going live.
	Latency netsim.Time
	// OnRepair, when set, observes each executed repair (the recovery
	// tracker hooks reconvergence measurement here).
	OnRepair func(rep Repair)

	topo *topology.Graph
	live *routing.Routes // mutated in place; private to the run
	orig []routing.Rule  // the strategy's rules, the repair baseline
	down routing.Outage
}

// NewRerouter builds a repair loop over a run-private route set.
func NewRerouter(g *topology.Graph, live *routing.Routes, latency netsim.Time) *Rerouter {
	return &Rerouter{
		Latency: latency,
		topo:    g,
		live:    live,
		orig:    append([]routing.Rule(nil), live.Rules...),
		down: routing.Outage{
			Edge:   map[int]bool{},
			Switch: map[int]bool{},
		},
	}
}

// OnFault implements faults.Observer: it updates the outage view
// immediately (the controller's port-status notification) and arms the
// repair after the modelled latency.
func (r *Rerouter) OnFault(net *netsim.Network, ev faults.Event) {
	switch ev.Kind {
	case faults.LinkDown:
		r.down.Edge[ev.Elem] = true
	case faults.LinkUp:
		delete(r.down.Edge, ev.Elem)
	case faults.SwitchDown:
		r.down.Switch[ev.Elem] = true
	case faults.SwitchUp:
		delete(r.down.Switch, ev.Elem)
	}
	faultAt := net.Sim.Now()
	net.Sim.After(r.Latency, func() { r.repair(net, faultAt) })
}

// repair recomputes the patched rule set against the outage as of now
// (later faults already folded in are simply re-confirmed with zero
// churn) and swaps it live.
func (r *Rerouter) repair(net *netsim.Network, faultAt netsim.Time) {
	base := &routing.Routes{Topo: r.topo, Strategy: r.live.Strategy, NumVCs: r.live.NumVCs, Rules: r.orig}
	rules, patched := routing.RepairAvoiding(base, r.down)
	rep := Repair{
		FaultAt:      faultAt,
		At:           net.Sim.Now(),
		RulesChanged: routing.Churn(r.live.Rules, rules),
		PatchedDsts:  len(patched),
	}
	r.live.ReplaceRules(append([]routing.Rule(nil), rules...))
	if r.OnRepair != nil {
		r.OnRepair(rep)
	}
}
