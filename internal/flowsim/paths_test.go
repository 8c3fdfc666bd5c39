package flowsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fibPath is the path walk over the compiled FIB, the way the packet
// engine forwards: the oracle TestWalkerMatchesFIB holds the
// Lookup-based walker to. It takes each hop's edge as the lowest edge
// ID on the out port in the switch's CSR row rather than through
// CSR.EdgeAt, and returns Routes.Walk's errors word for word, under the
// same hop bound.
func fibPath(g *topology.Graph, routes *routing.Routes, cfg *netsim.Config, src, dst int) (links []int32, base float64, err error) {
	fib := routes.FIB()
	csr := g.CSR()
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
		// The edge behind port out: of several, the lowest ID.
		eid := -1
		for i := csr.Start[cur]; i < csr.Start[cur+1]; i++ {
			if int(csr.Port[i]) == out && (eid < 0 || int(csr.Edge[i]) < eid) {
				eid = int(csr.Edge[i])
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

// checkWalker resolves every (src, dst) pair with the walker, each as
// the one pair of its own schedule, and with fibPath; both must give
// the same links and base, or the same error.
func checkWalker(t *testing.T, what string, g *topology.Graph, routes *routing.Routes, srcs, dsts []int) (paths, failed int) {
	t.Helper()
	cfg := netsim.DefaultConfig()
	for _, src := range srcs {
		for _, dst := range dsts {
			if src == dst {
				continue
			}
			s, err := New(g, cfg, []int{src, dst}, []netsim.Flow{{Src: 0, Dst: 1}})
			if err != nil {
				t.Fatal(err)
			}
			s.Walker(1)(routes, s.Dsts())
			w := s.walkers[0]
			err = w.err
			links, base, ferr := fibPath(g, routes, &cfg, src, dst)
			if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
				t.Fatalf("%s, %d->%d: walker error %v, FIB walk error %v", what, src, dst, err, ferr)
			}
			if err != nil {
				failed++
				continue
			}
			w.final()
			got := s.paths[0]
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
	loads := make([]float64, len(df.Edges))
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

// FuzzFlowPaths holds the walk over routing.ForEachBlock's blocks —
// the way core's flow path resolves a schedule's paths without a route
// set — to ComputeFor's route set walked with Routes.Walk and to
// fibPath: for every (src, dst) pair of a random schedule on a
// generator's example fabric under its Table III strategy, the same
// links and zero-load latency, and the same error for a pair or a
// build that fails, at 1 and at 4 workers. mods adds two hosts with no
// link: as the sources of every fourth flow, in turn (bit 0), pairs
// that cannot be walked, of which the run must report the one injected
// first; one as the last flow's destination (bit 2), a route build
// that fails. Bit 1 sends the last flow to a rank past the placement, which
// New must reject as Run does.
//
// CI runs this as a smoke (`go test -fuzz=FuzzFlowPaths -fuzztime=10s`).
func FuzzFlowPaths(f *testing.F) {
	row := func(name string) uint8 {
		return uint8(slices.IndexFunc(topology.Generators, func(g topology.Generator) bool { return g.Name == name }))
	}
	f.Add(row("fattree"), int64(1), uint8(40), uint8(0))
	f.Add(row("fattree"), int64(2), uint8(12), uint8(1))   // an unroutable pair
	f.Add(row("dragonfly"), int64(3), uint8(63), uint8(2)) // a destination out of range
	f.Add(row("torus2d"), int64(4), uint8(50), uint8(0))   // several run shapes
	f.Add(row("torus3d"), int64(5), uint8(63), uint8(1))
	f.Add(row("mesh2d"), int64(7), uint8(20), uint8(4)) // a failing route build
	f.Add(row("bcube"), int64(6), uint8(30), uint8(0))
	f.Fuzz(func(t *testing.T, gen uint8, seed int64, n uint8, mods uint8) {
		g, err := (&topology.Config{
			Generator: topology.Generators[int(gen)%len(topology.Generators)].Name,
			Params:    topology.Generators[int(gen)%len(topology.Generators)].Example,
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		if mods&5 != 0 {
			c := g.ToConfig()
			c.Hosts = append(c.Hosts, "orphan-a", "orphan-b")
			if g, err = c.Build(); err != nil {
				t.Fatal(err)
			}
		}
		// Random pairs join the fabric's linked hosts; the orphans, when
		// there are any, are the last two ranks.
		var hosts []int
		for _, h := range g.Hosts() {
			if g.HostSwitch(h) >= 0 {
				hosts = append(hosts, h)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		ranks := len(hosts)
		if mods&5 != 0 {
			hosts = append(hosts, len(g.Vertices)-2, len(g.Vertices)-1)
		}
		dc := routing.ForTopology(g).(routing.DstComputer)
		flows := make([]netsim.Flow, int(n)%64+1)
		for i := range flows {
			src := rng.Intn(ranks)
			dst := (src + 1 + rng.Intn(ranks-1)) % ranks
			flows[i] = netsim.Flow{Src: src, Dst: dst, Bytes: 1000, Start: netsim.Time(rng.Intn(4)), Tag: i}
		}
		if mods&1 != 0 {
			for i := 0; i < len(flows); i += 4 {
				flows[i].Src = ranks + i/4%2
			}
		}
		if last := &flows[len(flows)-1]; mods&4 != 0 && last.Src != ranks {
			last.Dst = ranks
		}
		if mods&2 != 0 {
			flows[len(flows)-1].Dst = len(hosts)
		}
		cfg := netsim.DefaultConfig()
		// The routes toward the schedule's destinations, as ComputeFor
		// builds them.
		var dsts []int
		for i := range flows {
			if d := flows[i].Dst; d < len(hosts) {
				dsts = append(dsts, hosts[d])
			}
		}
		ref, refErr := dc.ComputeFor(g, dsts)

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, workers := range []int{1, 4} {
			runtime.GOMAXPROCS(workers)
			sched := slices.Clone(flows)
			s, err := New(g, cfg, hosts, sched)
			if mods&2 != 0 {
				if refErr != nil {
					return
				}
				_, want := Run(context.Background(), g, ref, cfg, hosts, slices.Clone(flows))
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("%d workers: New: %v, Run: %v", workers, err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			err = routing.ForEachBlock(g, dc, s.Dsts(), s.Walker)
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("%d workers: %s: blocks fail with %v, ComputeFor with %v", workers, g.Name, err, refErr)
			}
			if err != nil {
				return
			}
			for _, w := range s.walkers {
				w.final()
			}
			// The error the run reports is the failed pair's whose first
			// flow injects earliest.
			var want error
			var first int32
			for pid, fi := range s.head {
				src, dst := hosts[sched[fi].Src], hosts[sched[fi].Dst]
				var links []int32
				walkErr := ref.Walk(src, dst, func(from, edge, _ int) {
					if g.Edges[edge].A == from {
						links = append(links, int32(2*edge))
					} else {
						links = append(links, int32(2*edge+1))
					}
				})
				fibLinks, base, fibErr := fibPath(g, ref, &cfg, src, dst)
				if (walkErr == nil) != (fibErr == nil) || walkErr != nil && walkErr.Error() != fibErr.Error() {
					t.Fatalf("%d->%d: Walk error %v, FIB walk error %v", src, dst, walkErr, fibErr)
				}
				got := s.paths[pid]
				if walkErr != nil {
					if got.links != nil {
						t.Fatalf("%d workers: %d->%d resolved to %v, ComputeFor's set fails: %v", workers, src, dst, got.links, walkErr)
					}
					if want == nil || injectionCmp(sched, fi, first) < 0 {
						want, first = walkErr, fi
					}
					continue
				}
				if !slices.Equal(got.links, links) || !slices.Equal(got.links, fibLinks) || got.base != base {
					t.Fatalf("%d workers: %d->%d: blocks resolve %v base %v, ComputeFor + Walk %v, FIB walk %v base %v",
						workers, src, dst, got.links, got.base, links, fibLinks, base)
				}
			}
			_, err = s.engine()
			if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
				t.Fatalf("%d workers: the run fails with %v, want %v", workers, err, want)
			}
		}
	})
}
