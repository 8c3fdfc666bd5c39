package flowsim

import (
	"fmt"

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

// walker resolves host-to-host paths by walking the route set's rules
// hop by hop — the rules the packet engine forwards with, so flow-level
// and packet-level runs cannot disagree about which links a flow
// crosses. It looks each hop up with Routes.Lookup, which
// FuzzFIBLookup holds equal to the packet engine's FIB.Forward on every
// tuple. A run resolves each (src, dst) pair once — a few lookups per
// pair — so compiling the FIB's switches × destinations slots would
// cost more than the lookups it spares.
//
// Resolved paths live in one slab: path i's links are
// links[ends[i-1]:ends[i]] and its latency paths[i].base. Appending may
// move links, so the paths' links slices are taken by final, once every
// path is resolved.
type walker struct {
	g       *topology.Graph
	csr     *topology.CSR
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
		csr:     g.CSR(),
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
func (w *walker) dirLink(eid int32, from int) int32 {
	if w.g.Edges[eid].A == from {
		return 2 * eid
	}
	return 2*eid + 1
}

// edgeAt finds the edge behind a switch's logical out port (ports are
// unique per vertex, so the first half-edge of the row carrying it is
// the only one).
func (w *walker) edgeAt(sw, port int) int32 {
	lo, hi := w.csr.Row(sw)
	for e := lo; e < hi; e++ {
		if int(w.csr.Port[e]) == port {
			return w.csr.Edge[e]
		}
	}
	return -1
}

// path resolves the route from host src to host dst into the slab's
// next index.
func (w *walker) path(src, dst int) error {
	g := w.g
	cur := g.HostSwitch(src)
	if cur < 0 {
		return fmt.Errorf("flowsim: host %d has no switch", src)
	}
	up := g.EdgeBetween(src, cur)
	if up < 0 {
		return fmt.Errorf("flowsim: host %d detached from switch %d", src, cur)
	}
	start := len(w.links)
	w.links = append(w.links, w.dirLink(int32(up), src))
	inPort := g.Edges[up].PortAt(cur)
	tag := 0
	nsw := 0
	for {
		if nsw > len(g.Vertices) {
			return fmt.Errorf("flowsim: path %d->%d exceeds %d hops (routing loop?)", src, dst, nsw)
		}
		nsw++
		rule := w.routes.Lookup(cur, inPort, dst, tag)
		if rule == nil {
			return fmt.Errorf("flowsim: no route on switch %d for dst %d tag %d", cur, dst, tag)
		}
		if rule.NewTag >= 0 {
			tag = rule.NewTag
		}
		eid := w.edgeAt(cur, rule.OutPort)
		if eid < 0 {
			return fmt.Errorf("flowsim: switch %d out port %d dangling", cur, rule.OutPort)
		}
		e := g.Edges[eid]
		nxt := e.Other(cur)
		w.links = append(w.links, w.dirLink(eid, cur))
		if nxt == dst {
			break
		}
		if g.Vertices[nxt].Kind != topology.Switch {
			return fmt.Errorf("flowsim: path %d->%d delivered to wrong host %d", src, dst, nxt)
		}
		inPort = e.PortAt(nxt)
		cur = nxt
	}
	hops := len(w.links) - start
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
