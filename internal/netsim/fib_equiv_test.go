package netsim

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// lookupForwarder is the uncompiled reference Forwarder backed by
// Routes.Lookup: the oracle the FIB fast path of RouteForwarder is
// verified against (TestFIBForwarderMatchesLookup runs full
// simulations both ways and demands identical outputs).
type lookupForwarder struct {
	routes *routing.Routes
}

// Forward implements Forwarder.
func (lf lookupForwarder) Forward(sw, inPort int, pkt *Packet) (int, int, bool) {
	rule := lf.routes.Lookup(sw, inPort, pkt.Dst, pkt.Tag)
	if rule == nil {
		return 0, 0, false
	}
	tag := pkt.Tag
	if rule.NewTag >= 0 {
		tag = rule.NewTag
	}
	return rule.OutPort, tag, true
}

// fibEquivDigest runs an all-to-one RoCE incast plus a TCP flow on the
// given forwarder and returns a byte-exact digest of everything the
// experiments derive their outputs from: delivery counters, drop/
// pause/ECN totals, per-host goodput, final simulated time, and the
// engine's event count.
func fibEquivDigest(t *testing.T, g *topology.Graph, fwd Forwarder, pfc bool) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PFC = pfc
	cfg.CC = CCDCQCN
	net, err := NewNetwork(g, fwd, cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	target := hosts[len(hosts)/2]
	for i, h := range hosts {
		if h == target {
			continue
		}
		// Spread tags across VCs to exercise tag-qualified rules.
		net.Host(h).Send(target, i%2, 64<<10)
	}
	net.StartTCP(hosts[0], hosts[len(hosts)-1], 256<<10, nil)
	net.Sim.Run(50 * Millisecond)
	out := fmt.Sprintf("t=%d ev=%d delivered=%d drops=%d pauses=%d ecn=%d\n",
		net.Sim.Now(), net.Sim.Events(), net.DeliveredPkt, net.TotalDrops, net.PausesSent, net.EcnMarks)
	for _, h := range hosts {
		out += fmt.Sprintf("h%d=%d\n", h, net.Host(h).DeliveredBytes)
	}
	return out
}

// TestRouteForwarderTracksRuleMutations pins the manual-strategy
// workflow: rules added AFTER the forwarder (and network) are
// constructed must be visible to forwarding — the forwarder must not
// pin a stale FIB snapshot.
func TestRouteForwarderTracksRuleMutations(t *testing.T) {
	g := topology.Line(2, 1)
	hosts := g.Hosts()
	sws := g.Switches()
	r := routing.NewManualRoutes(g, "mutable", 1)
	// Initially only host 0 -> host 1 is routed.
	addPath := func(src, dst int) {
		sSrc, sDst := g.HostSwitch(src), g.HostSwitch(dst)
		eid := g.EdgeBetween(sSrc, sDst)
		r.AddRule(routing.Rule{Switch: sSrc, Dst: dst, Tag: -1,
			OutPort: g.Edges[eid].PortAt(sSrc), NewTag: -1})
		eh := g.EdgeBetween(sDst, dst)
		r.AddRule(routing.Rule{Switch: sDst, Dst: dst, Tag: -1,
			OutPort: g.Edges[eh].PortAt(sDst), NewTag: -1})
	}
	addPath(hosts[0], hosts[1])
	fwd := NewRouteForwarder(r)
	pkt := &Packet{Dst: hosts[0]}
	if _, _, ok := fwd.Forward(sws[1], 1, pkt); ok {
		t.Fatal("reverse path routed before its rules exist")
	}
	addPath(hosts[1], hosts[0])
	if _, _, ok := fwd.Forward(sws[1], 1, pkt); !ok {
		t.Fatal("rule added after NewRouteForwarder is invisible to Forward")
	}
}

// TestFIBForwarderMatchesLookup is the whole-simulation differential:
// the compiled-FIB RouteForwarder and the Routes.Lookup reference
// forwarder must produce byte-identical simulations at the same seed on
// every topology family of the evaluation — fat-tree, dragonfly
// (VC transition on the global hop), and torus (in-port-qualified
// dateline rules) — with PFC both on and off.
func TestFIBForwarderMatchesLookup(t *testing.T) {
	cases := []struct {
		g     *topology.Graph
		strat routing.Strategy
	}{
		{topology.FatTree(4), routing.FatTreeDFS{}},
		{topology.Dragonfly(4, 9, 2, 1), routing.DragonflyMinimal{}},
		{topology.Torus2D(4, 4, 1), routing.TorusClue{Dims: 2}},
	}
	for _, c := range cases {
		routes, err := c.strat.Compute(c.g)
		if err != nil {
			t.Fatal(err)
		}
		routes.Prime()
		for _, pfc := range []bool{true, false} {
			ref := fibEquivDigest(t, c.g, lookupForwarder{routes: routes}, pfc)
			fib := fibEquivDigest(t, c.g, NewRouteForwarder(routes), pfc)
			if ref != fib {
				t.Errorf("%s (pfc=%v): FIB simulation diverged from Lookup reference:\n--- lookup ---\n%s--- fib ---\n%s",
					c.g.Name, pfc, ref, fib)
			}
		}
	}
}
