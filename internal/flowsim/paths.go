package flowsim

import (
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
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
// Resolved paths live in one slab: path i's links are
// links[ends[i-1]:ends[i]] and its latency paths[i].base. Appending may
// move links, so the paths' links slices are taken by final, once every
// path is resolved.
type walker struct {
	g       *topology.Graph
	routes  *routing.Routes
	paths   []pathInfo
	ends    []int32
	links   []int32
	hdrSer  float64 // header serialisation time in ps (cut-through per-hop cost)
	hostLat float64
	swLat   float64
	propLat float64
}

// linksPerPath sizes the link array: a fat-tree path crosses at most 6
// links, and a longer path only regrows the array.
const linksPerPath = 8

// newWalker returns a walker for maxPaths paths, its slab sized for
// them so that resolving them allocates nothing more.
func newWalker(g *topology.Graph, routes *routing.Routes, cfg *netsim.Config, maxPaths int) *walker {
	return &walker{
		g:       g,
		routes:  routes,
		paths:   make([]pathInfo, 0, maxPaths),
		ends:    make([]int32, 0, maxPaths),
		links:   make([]int32, 0, linksPerPath*maxPaths),
		hdrSer:  float64(netsim.HeaderBytes*8) / cfg.LinkBps * float64(netsim.Second),
		hostLat: float64(cfg.HostLatency),
		swLat:   float64(cfg.SwitchLatency),
		propLat: float64(cfg.PropDelay),
	}
}

// dirLink is the directed-link id for traversing edge eid out of vertex
// `from`.
func (w *walker) dirLink(eid, from int) int32 {
	if w.g.Edges[eid].A == from {
		return int32(2 * eid)
	}
	return int32(2*eid + 1)
}

// path resolves the route from host src to host dst into the slab's
// next index.
func (w *walker) path(src, dst int) error {
	start := len(w.links)
	err := w.routes.Walk(src, dst, func(from, edge, _ int) {
		w.links = append(w.links, w.dirLink(edge, from))
	})
	if err != nil {
		return err
	}
	hops := len(w.links) - start
	nsw := hops - 1 // every link but the uplink leaves a switch
	// Cut-through forwards once the header has arrived: each switch hop
	// re-serialises only the header. Products are rounded explicitly
	// (float64(x*y)) so that no architecture fuses them into the sums.
	base := 2*w.hostLat + float64(float64(nsw)*w.swLat) + float64(float64(hops)*w.propLat) +
		float64(float64(nsw)*w.hdrSer)
	w.paths = append(w.paths, pathInfo{base: base})
	w.ends = append(w.ends, int32(len(w.links)))
	return nil
}

// final returns the resolved paths with their links set; the walker
// resolves no more paths after it.
func (w *walker) final() []pathInfo {
	lo := int32(0)
	for i, hi := range w.ends {
		w.paths[i].links = w.links[lo:hi:hi]
		lo = hi
	}
	return w.paths
}
