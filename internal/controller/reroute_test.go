package controller

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestRerouterRepairsLiveRoutes drives a Rerouter through a link
// down/up cycle on a live network and checks the route set the
// forwarder reads is patched after the latency and restored after
// recovery.
func TestRerouterRepairsLiveRoutes(t *testing.T) {
	g := topology.FatTree(4)
	orig, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	live := orig.Clone()
	live.Prime()
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(live), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rr := NewRerouter(g, live, 100*netsim.Microsecond)
	var repairs []Repair
	rr.OnRepair = func(rep Repair) { repairs = append(repairs, rep) }

	dead := faults.PickCoreEdges(g, 1, 5)[0]
	sched, err := (&faults.Spec{Events: []faults.Event{
		{At: 10 * netsim.Microsecond, Kind: faults.LinkDown, Elem: dead},
		{At: 500 * netsim.Microsecond, Kind: faults.LinkUp, Elem: dead},
	}}).Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	faults.Bind(net, sched, rr)

	// Between repair (110us) and recovery repair (600us) the live rules
	// must avoid the dead edge.
	csr := g.CSR()
	usesDead := func() bool {
		for i := range live.Rules {
			r := &live.Rules[i]
			lo, hi := csr.Row(r.Switch)
			for e := lo; e < hi; e++ {
				if int(csr.Port[e]) == r.OutPort && int(csr.Edge[e]) == dead {
					return true
				}
			}
		}
		return false
	}
	checked := 0
	net.Sim.At(300*netsim.Microsecond, func() {
		checked++
		if usesDead() {
			t.Error("live routes still use the dead edge after repair")
		}
	})
	net.Sim.At(800*netsim.Microsecond, func() {
		checked++
		if !usesDead() {
			t.Error("recovery did not restore the original routes")
		}
		if len(live.Rules) != len(orig.Rules) {
			t.Errorf("restored %d rules, want %d", len(live.Rules), len(orig.Rules))
		}
	})
	net.Sim.Run(0)

	if checked != 2 {
		t.Fatalf("%d probes ran", checked)
	}
	if len(repairs) != 2 {
		t.Fatalf("%d repairs, want 2", len(repairs))
	}
	if repairs[0].At != 110*netsim.Microsecond || repairs[1].At != 600*netsim.Microsecond {
		t.Fatalf("repair times %v, %v", repairs[0].At, repairs[1].At)
	}
	if repairs[0].RulesChanged == 0 || repairs[0].PatchedDsts == 0 {
		t.Fatal("first repair changed nothing")
	}
	// Symmetric churn: the restore undoes exactly the patch.
	if repairs[1].RulesChanged != repairs[0].RulesChanged {
		t.Fatalf("restore churn %d != patch churn %d",
			repairs[1].RulesChanged, repairs[0].RulesChanged)
	}
	// The rerouter mutated only its private set, never the strategy's.
	fresh, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Rules) != len(orig.Rules) {
		t.Fatal("strategy recompute drifted")
	}
	for i := range orig.Rules {
		if orig.Rules[i] != fresh.Rules[i] {
			t.Fatal("original routes were mutated by the rerouter")
		}
	}
}

// TestRuleChurn pins the symmetric-difference accounting.
func TestRuleChurn(t *testing.T) {
	a := routing.Rule{Switch: 1, Dst: 2, OutPort: 3, NewTag: -1}
	b := routing.Rule{Switch: 1, Dst: 2, OutPort: 4, NewTag: -1}
	c := routing.Rule{Switch: 2, Dst: 2, OutPort: 1, NewTag: -1}
	cases := []struct {
		old, new []routing.Rule
		want     int
	}{
		{nil, nil, 0},
		{[]routing.Rule{a}, []routing.Rule{a}, 0},
		{[]routing.Rule{a}, []routing.Rule{b}, 2},
		{[]routing.Rule{a, c}, []routing.Rule{a}, 1},
		{[]routing.Rule{a}, []routing.Rule{a, b, c}, 2},
		{[]routing.Rule{a, a}, []routing.Rule{a}, 1}, // duplicates count
	}
	for i, cse := range cases {
		if got := routing.Churn(cse.old, cse.new); got != cse.want {
			t.Errorf("case %d: churn %d, want %d", i, got, cse.want)
		}
	}
}
