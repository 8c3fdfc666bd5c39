package flowsim

import (
	"slices"

	"repro/internal/netsim"
	"repro/internal/routing"
)

// pathInfo is one resolved host-to-host route through the fabric.
type pathInfo struct {
	// links are the directed links the flow occupies, source host NIC
	// through delivery: 2*edge+0 when traversed from Edge.A, 2*edge+1
	// from Edge.B. Both directions of a full-duplex cable carry
	// independent capacity, exactly as in the packet engine.
	links []int32
	// base is the zero-load one-way latency in picoseconds beyond
	// payload serialisation: host NIC latency at both ends, switch
	// pipeline latency and (cut-through) header re-serialisation per
	// hop, propagation per link.
	base float64
}

// walker resolves host-to-host paths with Routes.Walk, which follows
// the route set's rules hop by hop — the rules the packet engine
// forwards with, so flow-level and packet-level runs cannot disagree
// about which links a flow crosses. Walk looks each hop up with
// Routes.Lookup, which FuzzFIBLookup holds equal to the packet engine's
// FIB.Forward on every tuple. A run resolves each (src, dst) pair once
// — a few lookups per pair — so compiling the FIB's switches ×
// destinations slots would cost more than the lookups it spares.
//
// A walker is handed a block of destinations and a route set holding
// their rules — Run's whole set, or one of routing.ForEachBlock's
// blocks — and walks every pair toward the block. It writes each pair's
// latency into the pair's slot of the Sim and its links into its own
// slab: the pairs it walked are done[i].pid, in order, and pair
// done[i].pid's links are links[done[i-1].end:done[i].end]. Appending
// may move links, so final sets the slots' links once every walk is
// done. A pair that fails to walk leaves no links; the walker keeps the
// error of the one whose first flow injects earliest.
type walker struct {
	s       *Sim
	links   []int32
	done    []pairEnd
	hdrSer  float64 // header serialisation time in ps (cut-through per-hop cost)
	hostLat float64
	swLat   float64
	propLat float64

	foreign error // a route set for another graph, which the walker did not walk
	err     error // the failed walk whose first flow injects earliest
	errFlow int32 // that pair's first flow
}

// pairEnd marks where a walked pair's links end in the walker's slab.
type pairEnd struct{ pid, end int32 }

// linksPerPath sizes the link array: a fat-tree path crosses at most 6
// links, and a longer path only regrows the array.
const linksPerPath = 8

// newWalker returns a walker for s, its slab sized for maxPaths paths
// so that resolving them allocates nothing more.
func newWalker(s *Sim, maxPaths int) *walker {
	cfg := &s.cfg
	return &walker{
		s:       s,
		links:   make([]int32, 0, linksPerPath*maxPaths),
		done:    make([]pairEnd, 0, maxPaths),
		hdrSer:  float64(netsim.HeaderBytes*8) / cfg.LinkBps * float64(netsim.Second),
		hostLat: float64(cfg.HostLatency),
		swLat:   float64(cfg.SwitchLatency),
		propLat: float64(cfg.PropDelay),
	}
}

// dirLink is the directed-link id for traversing edge eid out of vertex
// `from`.
func (w *walker) dirLink(eid, from int) int32 {
	if w.s.g.Edges[eid].A == from {
		return int32(2 * eid)
	}
	return int32(2*eid + 1)
}

// walk resolves the path of every pair toward the destinations of block
// over routes.
func (w *walker) walk(routes *routing.Routes, block []int) {
	s := w.s
	if err := checkRoutes(s.g, routes); err != nil {
		if w.foreign == nil {
			w.foreign = err
		}
		return
	}
	for _, dst := range block {
		i, ok := slices.BinarySearch(s.dsts, dst)
		if !ok {
			continue
		}
		for pid := s.dstOff[i]; pid < s.dstOff[i+1]; pid++ {
			fi := s.head[pid]
			if err := w.path(routes, pid, s.hosts[s.flows[fi].Src], dst); err != nil &&
				(w.err == nil || injectionCmp(s.flows, fi, w.errFlow) < 0) {
				w.err, w.errFlow = err, fi
			}
		}
	}
}

// path resolves the route from host src to host dst, pair pid's.
func (w *walker) path(routes *routing.Routes, pid int32, src, dst int) error {
	start := len(w.links)
	err := routes.Walk(src, dst, func(from, edge, _ int) {
		w.links = append(w.links, w.dirLink(edge, from))
	})
	if err != nil {
		w.links = w.links[:start]
		return err
	}
	hops := len(w.links) - start
	nsw := hops - 1 // every link but the uplink leaves a switch
	// Cut-through forwards once the header has arrived: each switch hop
	// re-serialises only the header. Products are rounded explicitly
	// (float64(x*y)) so that no architecture fuses them into the sums.
	w.s.paths[pid].base = 2*w.hostLat + float64(float64(nsw)*w.swLat) + float64(float64(hops)*w.propLat) +
		float64(float64(nsw)*w.hdrSer)
	w.done = append(w.done, pairEnd{pid, int32(len(w.links))})
	return nil
}

// final sets the links of the pairs the walker resolved; it resolves no
// more paths after it.
func (w *walker) final() {
	lo := int32(0)
	for _, d := range w.done {
		w.s.paths[d.pid].links = w.links[lo:d.end:d.end]
		lo = d.end
	}
}
