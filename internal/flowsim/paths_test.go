package flowsim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fibPath is the path walk over the compiled FIB, the way the packet
// engine forwards: the oracle TestWalkerMatchesFIB holds the
// Lookup-based walker to. It finds each hop's edge among the switch's
// incident edges rather than in its CSR row, and returns Routes.Walk's
// errors word for word, under the same hop bound.
func fibPath(g *topology.Graph, routes *routing.Routes, cfg *netsim.Config, src, dst int) (links []int32, base float64, err error) {
	fib := routes.FIB()
	dirLink := func(eid, from int) int32 {
		if g.Edges[eid].A == from {
			return int32(2 * eid)
		}
		return int32(2*eid + 1)
	}
	cur := g.HostSwitch(src)
	if cur < 0 {
		return nil, 0, fmt.Errorf("routing: %s: host %d unattached", routes.Strategy, src)
	}
	up := g.EdgeBetween(src, cur)
	links = append(links, dirLink(up, src))
	inPort := g.Edges[up].PortAt(cur)
	tag, nsw := 0, 0
	limit := len(g.Vertices)*max(routes.NumVCs, 1) + 2
	for {
		if nsw > limit {
			return nil, 0, fmt.Errorf("routing: %s: path %d->%d exceeds %d hops (loop?)", routes.Strategy, src, dst, limit)
		}
		nsw++
		out, newTag, ok := fib.Forward(cur, inPort, dst, tag)
		if !ok {
			return nil, 0, fmt.Errorf("routing: %s: no rule on switch %d for dst %d tag %d", routes.Strategy, cur, dst, tag)
		}
		tag = newTag
		eid := -1
		for _, e := range g.IncidentEdges(cur) {
			if g.Edges[e].PortAt(cur) == out {
				eid = e
				break
			}
		}
		if eid < 0 {
			return nil, 0, fmt.Errorf("routing: %s: switch %d out port %d dangling", routes.Strategy, cur, out)
		}
		e := g.Edges[eid]
		nxt := e.Other(cur)
		links = append(links, dirLink(eid, cur))
		if nxt == dst {
			break
		}
		if g.Vertices[nxt].Kind != topology.Switch {
			return nil, 0, fmt.Errorf("routing: %s: path %d->%d delivered to wrong host %d", routes.Strategy, src, dst, nxt)
		}
		inPort = e.PortAt(nxt)
		cur = nxt
	}
	hdrSer := float64(netsim.HeaderBytes*8) / cfg.LinkBps * float64(netsim.Second)
	base = 2*float64(cfg.HostLatency) + float64(float64(nsw)*float64(cfg.SwitchLatency)) +
		float64(float64(len(links))*float64(cfg.PropDelay)) + float64(float64(nsw)*hdrSer)
	return links, base, nil
}

// checkWalker resolves every (src, dst) pair with the walker, one
// walker per pair so that a failed walk leaves nothing in the next
// one's slab, and with fibPath; both must give the same links and base,
// or the same error.
func checkWalker(t *testing.T, what string, g *topology.Graph, routes *routing.Routes, srcs, dsts []int) (paths, failed int) {
	t.Helper()
	cfg := netsim.DefaultConfig()
	for _, src := range srcs {
		for _, dst := range dsts {
			if src == dst {
				continue
			}
			w := newWalker(g, routes, &cfg, 1)
			err := w.path(src, dst)
			links, base, ferr := fibPath(g, routes, &cfg, src, dst)
			if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
				t.Fatalf("%s, %d->%d: walker error %v, FIB walk error %v", what, src, dst, err, ferr)
			}
			if err != nil {
				failed++
				continue
			}
			got := w.final()[0]
			if !slices.Equal(got.links, links) || got.base != base {
				t.Fatalf("%s, %d->%d: walker resolves links %v base %v, FIB walk links %v base %v",
					what, src, dst, got.links, got.base, links, base)
			}
			paths++
		}
	}
	return paths, failed
}

// TestWalkerMatchesFIB holds the path walker, which looks every hop up
// with Routes.Lookup, to the same walk over the compiled FIB the packet
// engine forwards with: identical links and zero-load latency for every
// host pair of every generator's example fabric under its Table III
// strategy; of a dragonfly under UGAL with its group 0 <-> 1 global
// links loaded, whose non-minimal paths follow the tag; and of a
// FatTree(16) routed toward a subset of its hosts, where a pair toward
// an unrouted host must fail the same way.
func TestWalkerMatchesFIB(t *testing.T) {
	for _, gen := range topology.Generators {
		g, err := (&topology.Config{Generator: gen.Name, Params: gen.Example}).Build()
		if err != nil {
			t.Fatal(err)
		}
		routes, err := routing.ForTopology(g).Compute(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		hosts := g.Hosts()
		if paths, failed := checkWalker(t, g.Name, g, routes, hosts, hosts); failed > 0 || paths != len(hosts)*(len(hosts)-1) {
			t.Errorf("%s: %d of %d host pairs resolved, %d failed", g.Name, paths, len(hosts)*(len(hosts)-1), failed)
		}
	}

	df := topology.Dragonfly(4, 9, 2, 1)
	loads := map[int]float64{}
	for _, eid := range df.SwitchSwitchEdges() {
		e := df.Edges[eid]
		if ga, gb := df.Vertices[e.A].Coord[0], df.Vertices[e.B].Coord[0]; ga+gb == 1 {
			loads[eid] = 1e9
		}
	}
	ugal, err := routing.DragonflyUGAL{Loads: loads, Bias: 1}.Compute(df)
	if err != nil {
		t.Fatal(err)
	}
	dfHosts := df.Hosts()
	if _, failed := checkWalker(t, "ugal "+df.Name, df, ugal, dfHosts, dfHosts); failed > 0 {
		t.Errorf("ugal %s: %d host pairs failed", df.Name, failed)
	}

	g := topology.FatTree(16)
	hosts := g.Hosts()
	var dsts []int
	for i := 0; i < len(hosts); i += 16 {
		dsts = append(dsts, hosts[i])
	}
	routes, err := routing.FatTreeDFS{}.ComputeFor(g, dsts)
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := checkWalker(t, "subset "+g.Name, g, routes, hosts, dsts)
	if want := len(dsts) * (len(hosts) - 1); paths != want {
		t.Errorf("subset %s: %d pairs resolved, want %d", g.Name, paths, want)
	}
	if _, failed := checkWalker(t, "subset "+g.Name, g, routes, hosts[:8], hosts[1:2]); failed != 7 {
		t.Errorf("subset %s: %d pairs toward an unrouted host failed, want 7", g.Name, failed)
	}
}

// TestRunSubsetBytesBounded is the bytes budget of a flow-level run on
// a route subset, as core's flow path computes it: a FatTree(16) routed
// toward the 64 ranks of a uniform 256-flow schedule, each run on a
// fresh route set whose lookup index is already built. Measured: 116.7
// kB per run on amd64; the budget adds 8.8 %. The walker looks its hops
// up in the rule index, so a run that compiled the route set's FIB
// (101 kB here: 321 switch rows × 65 destination columns of slots)
// fails it.
func TestRunSubsetBytesBounded(t *testing.T) {
	const budget = 127e3
	g := topology.FatTree(16)
	all := g.Hosts()
	var hosts []int
	for i := 0; i < len(all); i += 16 {
		hosts = append(hosts, all[i])
	}
	cfg := netsim.DefaultConfig()
	flows := loadgen.Spec{
		Ranks: len(hosts), Pattern: loadgen.Uniform(),
		Sizes: loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64),
		Load:  0.5, Flows: 256, Seed: 1, LinkBps: cfg.LinkBps,
	}.MustGenerate().Flows
	sched := make([]netsim.Flow, len(flows))
	// bytes returns what f allocates.
	bytes := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const runs = 3
	var run, compile float64
	for i := 0; i <= runs; i++ {
		routes, err := routing.FatTreeDFS{}.ComputeFor(g, hosts)
		if err != nil {
			t.Fatal(err)
		}
		routes.Lookup(hosts[0], 1, hosts[1], 0)
		copy(sched, flows)
		b := bytes(func() {
			if _, err := Run(context.Background(), g, routes, cfg, hosts, sched); err != nil {
				t.Fatal(err)
			}
		})
		c := bytes(func() { routes.Compile() })
		if i > 0 { // the first run warms up
			run += b / runs
			compile += c / runs
		}
	}
	t.Logf("Run: %.0f bytes; a FIB compile of the same routes: %.0f", run, compile)
	if run > budget {
		t.Errorf("Run on subset routes allocates %.0f bytes, budget %.0f", run, budget)
	}
	if run+compile <= budget {
		t.Errorf("a Run that compiled the FIB (%.0f + %.0f bytes) would fit the budget of %.0f", run, compile, budget)
	}
}
