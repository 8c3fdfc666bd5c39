package faults

import (
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// liveFabric builds a k=4 fat-tree forwarding on a private, primed
// clone of its strategy routes; orig is the untouched strategy set.
func liveFabric(t *testing.T) (g *topology.Graph, orig, live *routing.Routes, net *netsim.Network) {
	t.Helper()
	g = topology.FatTree(4)
	orig, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	live = orig.Clone()
	live.Prime()
	net, err = netsim.NewNetwork(g, netsim.NewRouteForwarder(live), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return g, orig, live, net
}

// schedule expands one-shot events, failing the test on a bad spec.
func schedule(t *testing.T, g *topology.Graph, evs ...Event) []Event {
	t.Helper()
	sched, err := (&Spec{Events: evs}).Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// repairChurn is the churn of moving orig's repair from outage `from`
// to outage `to` (edge IDs), computed without a fabric: a clone of orig
// rerouted around each outage in turn.
func repairChurn(orig *routing.Routes, from, to []int) int {
	live := orig.Clone()
	live.Reroute(orig.Rules, func(e int) bool { return slices.Contains(from, e) })
	return live.Reroute(orig.Rules, func(e int) bool { return slices.Contains(to, e) })
}

// recordDeliveries collects every payload delivery time by re-arming
// a waiter at each delivery.
func recordDeliveries(net *netsim.Network) *[]netsim.Time {
	var at []netsim.Time
	var rec func(now netsim.Time)
	rec = func(now netsim.Time) {
		at = append(at, now)
		net.AwaitDelivery(rec)
	}
	net.AwaitDelivery(rec)
	return &at
}

// firstAtOrAfter returns the first time in ts at or after t, or -1.
func firstAtOrAfter(ts []netsim.Time, t netsim.Time) netsim.Time {
	for _, x := range ts {
		if x >= t {
			return x
		}
	}
	return -1
}

// TestRecordLifecycle: each record is stamped by its own repair and by
// the first delivery after that repair; a delivery landing before the
// second repair stamps only the first record.
func TestRecordLifecycle(t *testing.T) {
	g, orig, live, net := liveFabric(t)
	edges := PickCoreEdges(g, 2, 5)
	us := netsim.Microsecond
	sched := schedule(t, g,
		Event{At: 100 * us, Kind: LinkDown, Elem: edges[0]},
		Event{At: 200 * us, Kind: LinkDown, Elem: edges[1]},
	)
	recs := Bind(net, sched, live, 50*us)
	deliveries := recordDeliveries(net)
	hosts := g.Hosts()
	send := func() { net.Host(hosts[0]).Send(hosts[len(hosts)-1], 1, 1<<10) }
	net.Sim.At(160*us, send)
	net.Sim.At(400*us, send)
	net.Sim.Run(0)

	if len(recs) != 2 || recs[0].Event != sched[0] || recs[1].Event != sched[1] {
		t.Fatalf("records %+v for schedule %v", recs, sched)
	}
	r0, r1 := &recs[0], &recs[1]
	if r0.RepairAt != 150*us || r1.RepairAt != 250*us {
		t.Fatalf("repair times %d, %d", r0.RepairAt, r1.RepairAt)
	}
	if d := firstAtOrAfter(*deliveries, r0.RepairAt); d < 0 || d >= r1.RepairAt || r0.FirstDeliveryAfter != d {
		t.Fatalf("record 0 delivery %d, want the first delivery %d, before repair 1", r0.FirstDeliveryAfter, d)
	}
	if d := firstAtOrAfter(*deliveries, r1.RepairAt); d < 400*us || r1.FirstDeliveryAfter != d {
		t.Fatalf("record 1 delivery %d, want the first delivery after its repair %d", r1.FirstDeliveryAfter, d)
	}
	if r0.Reconvergence() != r0.FirstDeliveryAfter-100*us || r1.Reconvergence() != r1.FirstDeliveryAfter-200*us {
		t.Fatalf("reconvergence %d, %d", r0.Reconvergence(), r1.Reconvergence())
	}
	want0 := repairChurn(orig, nil, edges[:1])
	want1 := repairChurn(orig, edges[:1], edges)
	if want0 == 0 || r0.RulesChanged != want0 || r1.RulesChanged != want1 {
		t.Fatalf("churn %d, %d, want %d, %d", r0.RulesChanged, r1.RulesChanged, want0, want1)
	}
}

// TestRecordUnrepairedFault: with repair disabled a record stays
// unrepaired whatever the traffic does, and a repair no delivery
// follows never reconverges.
func TestRecordUnrepairedFault(t *testing.T) {
	us := netsim.Microsecond
	g, _, _, net := liveFabric(t)
	dead := PickCoreEdges(g, 1, 5)[0]
	recs := Bind(net, schedule(t, g, Event{At: 100 * us, Kind: LinkDown, Elem: dead}), nil, 50*us)
	hosts := g.Hosts()
	net.Sim.At(300*us, func() { net.Host(hosts[0]).Send(hosts[len(hosts)-1], 1, 1<<10) })
	net.Sim.Run(0)
	if r := &recs[0]; r.RepairAt != -1 || r.FirstDeliveryAfter != -1 || r.RulesChanged != 0 || r.Reconvergence() != -1 {
		t.Fatalf("repair disabled: record %+v", r)
	}

	g, _, live, net := liveFabric(t)
	recs = Bind(net, schedule(t, g, Event{At: 100 * us, Kind: LinkDown, Elem: dead}), live, 50*us)
	net.Sim.Run(0)
	if r := &recs[0]; r.RepairAt != 150*us || r.RulesChanged == 0 || r.FirstDeliveryAfter != -1 || r.Reconvergence() != -1 {
		t.Fatalf("no traffic: record %+v", r)
	}
}

// usesEdge reports whether any rule forwards onto edge.
func usesEdge(g *topology.Graph, rules []routing.Rule, edge int) bool {
	csr := g.CSR()
	for i := range rules {
		r := &rules[i]
		lo, hi := csr.Row(r.Switch)
		for e := lo; e < hi; e++ {
			if int(csr.Port[e]) == r.OutPort && int(csr.Edge[e]) == edge {
				return true
			}
		}
	}
	return false
}

// TestBindRepairsLiveRoutes drives a link down/up cycle on a live
// network and checks the route set the forwarder reads is patched after
// the latency, restored after recovery, and that the strategy's own
// rules are never touched.
func TestBindRepairsLiveRoutes(t *testing.T) {
	g, orig, live, net := liveFabric(t)
	dead := PickCoreEdges(g, 1, 5)[0]
	us := netsim.Microsecond
	recs := Bind(net, schedule(t, g,
		Event{At: 10 * us, Kind: LinkDown, Elem: dead},
		Event{At: 500 * us, Kind: LinkUp, Elem: dead},
	), live, 100*us)

	// Between repair (110us) and recovery repair (600us) the live rules
	// must avoid the dead edge.
	checked := 0
	net.Sim.At(300*us, func() {
		checked++
		if usesEdge(g, live.Rules, dead) {
			t.Error("live routes still use the dead edge after repair")
		}
	})
	net.Sim.At(800*us, func() {
		checked++
		if !usesEdge(g, live.Rules, dead) {
			t.Error("recovery did not restore the original routes")
		}
		if routing.Churn(live.Rules, orig.Rules) != 0 {
			t.Error("recovered rules differ from the strategy's")
		}
	})
	net.Sim.Run(0)

	if checked != 2 {
		t.Fatalf("%d probes ran", checked)
	}
	if recs[0].RepairAt != 110*us || recs[1].RepairAt != 600*us {
		t.Fatalf("repair times %v, %v", recs[0].RepairAt, recs[1].RepairAt)
	}
	if recs[0].RulesChanged == 0 {
		t.Fatal("first repair changed nothing")
	}
	// Symmetric churn: the restore undoes exactly the patch.
	if recs[1].RulesChanged != recs[0].RulesChanged {
		t.Fatalf("restore churn %d != patch churn %d", recs[1].RulesChanged, recs[0].RulesChanged)
	}
	// The repairs mutated only the private set, never the strategy's.
	fresh, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if routing.Churn(orig.Rules, fresh.Rules) != 0 || len(orig.Rules) != len(fresh.Rules) {
		t.Fatal("original routes were mutated by the repair")
	}
}

// TestBindSameInstantRepairs: four links fail at one instant, as a
// multi-link outage does. Every repair runs latency later at the same
// instant; the first already sees the whole outage, so record 0
// carries all the churn, and the three re-confirming repairs report 0
// and leave the compiled FIB in place. The recovery mirrors it.
func TestBindSameInstantRepairs(t *testing.T) {
	g, orig, live, net := liveFabric(t)
	edges := PickCoreEdges(g, 4, 7)
	us := netsim.Microsecond
	var evs []Event
	for _, e := range edges {
		evs = append(evs,
			Event{At: 100 * us, Kind: LinkDown, Elem: e},
			Event{At: 300 * us, Kind: LinkUp, Elem: e})
	}
	sched := schedule(t, g, evs...)
	recs := Bind(net, sched, live, 50*us)

	// Step the engine so the FIB can be read between repairs that
	// share an instant.
	fibs := make([]*routing.FIB, len(recs))
	for net.Sim.Step() {
		for k := range recs {
			if fibs[k] == nil && recs[k].RepairAt >= 0 {
				fibs[k] = live.FIB()
			}
		}
	}

	patch := repairChurn(orig, nil, edges)
	if patch == 0 {
		t.Fatal("fixture outage breaks no route")
	}
	for k := range recs {
		r := &recs[k]
		first := k%4 == 0
		want, at := 0, r.At+50*us
		if first {
			want = patch
		}
		if r.Event != sched[k] || r.RepairAt != at || r.RulesChanged != want {
			t.Fatalf("record %d = %+v, want repair at %d with churn %d", k, r, at, want)
		}
		if !first && fibs[k] != fibs[k-1] {
			t.Fatalf("re-confirming repair %d replaced the compiled FIB", k)
		}
	}
	if fibs[4] == fibs[0] {
		t.Fatal("the restore kept the repaired FIB")
	}
}
