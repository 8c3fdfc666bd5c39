package netsim

import (
	"testing"
	"unsafe"

	"repro/internal/routing"
	"repro/internal/topology"
)

// fatTreeNet builds a k=4 fat-tree (16 hosts) with DFS routes.
func fatTreeNet(t testing.TB) (*Network, []int) {
	t.Helper()
	g := topology.FatTree(4)
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, NewRouteForwarder(routes), DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return net, g.Hosts()
}

// marginalAllocs returns the allocations per unit that a run of hi
// units makes beyond a run of lo units: the fabric build and the
// warm-up of slices and maps cancel, what each message or flow costs
// does not.
func marginalAllocs(t *testing.T, lo, hi int, run func(n int)) float64 {
	a := testing.AllocsPerRun(3, func() { run(lo) })
	b := testing.AllocsPerRun(3, func() { run(hi) })
	return (b - a) / float64(hi-lo)
}

// TestMPIReplayAllocsBounded pins the message path of trace replay: a
// ring exchange (send right, receive from the left, compute) moves
// every message through Send, the QP queue, reassembly and the
// mailbox, and none of them may allocate per message once the slices
// and maps they reuse have grown.
func TestMPIReplayAllocsBounded(t *testing.T) {
	run := func(rounds int) {
		net, hosts := fatTreeNet(t)
		n := len(hosts)
		programs := make([][]Op, n)
		for r := range programs {
			prog := make([]Op, 0, 3*rounds)
			for i := 0; i < rounds; i++ {
				prog = append(prog,
					Op{Kind: OpSend, Peer: (r + 1) % n, Bytes: 4096, MTag: i},
					Op{Kind: OpRecv, Peer: (r + n - 1) % n, MTag: i},
					Op{Kind: OpCompute, Dur: Microsecond})
			}
			programs[r] = prog
		}
		app := NewApp(net, hosts, programs, nil)
		app.Start()
		net.Sim.Run(0)
		if app.ACT() <= 0 {
			t.Fatal("ring exchange did not complete")
		}
	}
	const lo, hi = 20, 120
	perMsg := marginalAllocs(t, lo, hi, run) / 16
	if perMsg > 0.05 {
		t.Errorf("trace replay allocates %.3f objects per message, want ~0", perMsg)
	}
}

// TestOpenLoopAllocsBounded is the same bound for an open-loop flow
// schedule on the fat-tree: packets are pooled, completions are typed
// events registered as each flow is injected, and the event queue's
// storage follows the pending count, so a longer schedule at the same
// load allocates nothing more per flow. A flow is dozens of events, so
// one allocation per event or packet would cost tens.
func TestOpenLoopAllocsBounded(t *testing.T) {
	run := func(nFlows int) {
		net, hosts := fatTreeNet(t)
		flows := make([]Flow, nFlows)
		for i := range flows {
			flows[i] = Flow{
				Src: i % 16, Dst: (i*7 + 3) % 16, Bytes: 8 * 1024,
				Start: Time(i) * 2 * Microsecond, Tag: i,
			}
			if flows[i].Src == flows[i].Dst {
				flows[i].Dst = (flows[i].Dst + 1) % 16
			}
		}
		app := NewFlowApp(net, hosts, flows, nil)
		app.Start()
		net.Sim.Run(0)
		if app.Completed() != nFlows {
			t.Fatalf("completed %d/%d flows", app.Completed(), nFlows)
		}
	}
	const lo, hi = 200, 1200
	if perFlow := marginalAllocs(t, lo, hi, run); perFlow > 0.05 {
		t.Errorf("open-loop run allocates %.3f objects per flow, want ~0", perFlow)
	}
}

// TestRoceQPFitsItsSizeClass keeps a queue pair at 32 bytes: a host
// opens one per peer and the qps slab holds them inline, so a bigger
// QP shows in the bytes every packet cell allocates.
func TestRoceQPFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(roceQP{}); n > 32 {
		t.Errorf("roceQP is %d bytes, want <= 32", n)
	}
}

// TestNewPairAllocsBounded opens a new (source, destination) pair with
// every flow on a k=8 fat-tree (128 hosts), where
// TestOpenLoopAllocsBounded reuses 16 hosts' pairs: queue pairs and
// their rate state live in per-fabric slabs, so a new pair costs no
// allocation of its own, only its share of a slab's or its host's
// sorted peer list's doubling. Between 32 and 127 peers per host (every
// pair) that share is at most 1/32.
func TestNewPairAllocsBounded(t *testing.T) {
	g := topology.FatTree(8)
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	fwd := NewRouteForwarder(routes)
	hosts := g.Hosts()
	n := len(hosts)
	for _, cc := range []string{"", CCDCQCN, CCTimely} {
		run := func(nFlows int) {
			cfg := DefaultConfig()
			cfg.CC = cc
			net, err := NewNetwork(g, fwd, cfg, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			flows := make([]Flow, nFlows)
			for i := range flows {
				src := i % n
				flows[i] = Flow{
					Src: src, Dst: (src + 1 + i/n) % n, Bytes: 4 * 1024,
					Start: Time(i) * 200 * Nanosecond, Tag: i,
				}
			}
			app := NewFlowApp(net, hosts, flows, nil)
			app.Start()
			net.Sim.Run(0)
			if app.Completed() != nFlows || len(net.qps) != nFlows {
				t.Fatalf("completed %d/%d flows over %d QPs", app.Completed(), nFlows, len(net.qps))
			}
		}
		const lo, hi = 32 * 128, 127 * 128
		if perPair := marginalAllocs(t, lo, hi, run); perPair > 0.05 {
			t.Errorf("cc %q: a new pair costs %.3f allocations, want <= 0.05", cc, perPair)
		}
	}
}

// testFabric is a topology with its compiled routes and crossbar
// grouping (nil: a crossbar per switch).
type testFabric struct {
	name       string
	g          *topology.Graph
	fwd        Forwarder
	crossbarOf func(v int) int
}

// build makes the fabric, with the SDT per-hop overhead where switches
// share crossbars.
func (f testFabric) build() (*Network, error) {
	return NewNetwork(f.g, f.fwd, DefaultConfig(), f.crossbarOf, f.crossbarOf != nil)
}

// newNetworkCases are the fabrics TestNewNetworkAllocsBounded and
// BenchmarkNewNetwork build: two fat-trees of different sizes, and the
// Dragonfly(4,9,2,1) of the paper's Table IV under SDT, each of its
// groups sharing one crossbar.
func newNetworkCases(tb testing.TB) []testFabric {
	var cases []testFabric
	for _, c := range []struct {
		name  string
		g     *topology.Graph
		strat routing.Strategy
		sdt   bool
	}{
		{"fattree4", topology.FatTree(4), routing.FatTreeDFS{}, false},
		{"fattree8", topology.FatTree(8), routing.FatTreeDFS{}, false},
		{"dragonfly-sdt", topology.Dragonfly(4, 9, 2, 1), routing.DragonflyMinimal{}, true},
	} {
		routes, err := c.strat.Compute(c.g)
		if err != nil {
			tb.Fatal(err)
		}
		f := testFabric{name: c.name, g: c.g, fwd: NewRouteForwarder(routes)}
		if c.sdt {
			g := c.g
			f.crossbarOf = func(v int) int { return g.Vertices[v].Coord[0] }
		}
		cases = append(cases, f)
	}
	return cases
}

// TestNewNetworkAllocsBounded pins a fabric build at the same handful
// of allocations whatever the fabric's size: devices, links, ports,
// crossbars and per-port state live in per-Network slabs, so one
// allocation per device or port would fail it. Graph.Validate's
// allocations, which vary a little with the graph, are not counted.
func TestNewNetworkAllocsBounded(t *testing.T) {
	const limit = 15
	first := -1.0
	for _, c := range newNetworkCases(t) {
		build := testing.AllocsPerRun(5, func() {
			if _, err := c.build(); err != nil {
				t.Fatal(err)
			}
		}) - testing.AllocsPerRun(5, func() {
			if err := c.g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s (%d vertices, %d edges): %.0f allocations", c.name, len(c.g.Vertices), len(c.g.Edges), build)
		if first < 0 {
			first = build
		}
		if build != first || build > limit {
			t.Errorf("%s: NewNetwork makes %.0f allocations, want the %.0f of the smallest fabric, at most %d", c.name, build, first, limit)
		}
	}
}

// BenchmarkNewNetwork times a fabric build of the k=8 fat-tree and the
// SDT Dragonfly(4,9,2,1); run it with -benchmem.
func BenchmarkNewNetwork(b *testing.B) {
	for _, c := range newNetworkCases(b)[1:] {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
