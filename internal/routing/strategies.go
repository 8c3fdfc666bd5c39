package routing

import (
	"fmt"
	"slices"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// FatTreeDFS is the paper's Table III routing for Fat-Tree: up-down
// (DFS) routing. Packets climb toward a deterministic core chosen by
// hashing the destination (spreading load across the core layer), then
// descend along the unique down path. Up-down routing is deadlock-free
// with a single VC because channel dependencies only turn down.
type FatTreeDFS struct{}

// Name implements Strategy.
func (FatTreeDFS) Name() string { return "fattree-dfs" }

// Compute implements Strategy.
func (s FatTreeDFS) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, s.plan(), nil)
}

// ComputeFor implements DstComputer.
func (s FatTreeDFS) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, s.plan(), dsts)
}

func (FatTreeDFS) plan() dstPlan { return dstPlan{"fattree-dfs", 1, fatTreeBuilder} }

// fatTreeBuilder validates fat-tree coordinates once and returns the
// per-destination up-down rule build.
func fatTreeBuilder(g *topology.Graph) (func(dst int, emit func(Rule)) error, error) {
	// Index switches by the coordinates topology.FatTree sets.
	var byCoord fatTreeCoords
	k := 0
	n := len(g.Switches())
	for _, s := range g.Switches() {
		c := g.Vertices[s].Coord
		if len(c) != 3 {
			return nil, fmt.Errorf("routing: %s: switch %d lacks fat-tree coords", g.Name, s)
		}
		if min(c[0], c[1], c[2]) < 0 || max(c[1], c[2]) >= n {
			return nil, fmt.Errorf("routing: %s: switch %d has fat-tree coords %v outside [0, %d)", g.Name, s, c, n)
		}
		byCoord.grow(c[0], c[1], c[2])
		if c[0] == 1 && c[2]+1 > k/2 { // agg index range gives k/2
			k = (c[2] + 1) * 2
		}
	}
	// A fat-tree's switches fill each layer's table, so a table larger
	// than the switch count holds positions no switch takes; refusing
	// it keeps a configuration file's coordinates from sizing byCoord.
	for _, l := range byCoord {
		if l.cols > 0 && l.rows > n/l.cols {
			return nil, fmt.Errorf("routing: %s: fat-tree coords span a %dx%d layer, more than its %d switches", g.Name, l.rows, l.cols, n)
		}
	}
	for _, s := range g.Switches() {
		c := g.Vertices[s].Coord
		byCoord.set(c[0], c[1], c[2], s)
	}
	half := k / 2
	if half == 0 {
		return nil, fmt.Errorf("routing: %s is not a fat-tree", g.Name)
	}
	csr := g.CSR()
	return func(dst int, emit func(Rule)) error {
		hc := g.Vertices[dst].Coord // {3, pod, edge, slot}
		if len(hc) != 4 {
			return fmt.Errorf("routing: host %d lacks fat-tree coords", dst)
		}
		dPod, dEdge := hc[1], hc[2]
		spread := dst // deterministic hash: spread by destination ID
		dstEdgeSw := byCoord.at(2, dPod, dEdge)
		for _, s := range g.Switches() {
			c := g.Vertices[s].Coord
			var nxt int
			switch c[0] {
			case 2: // edge switch
				if c[1] == dPod && c[2] == dEdge {
					emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
						OutPort: csr.PortTo(s, dst), NewTag: -1})
					continue
				}
				// Up to aggregation chosen by destination hash.
				nxt = byCoord.at(1, c[1], spread%half)
			case 1: // aggregation switch
				if c[1] == dPod {
					nxt = dstEdgeSw // down
				} else {
					// Up to core row c[2], column by hash.
					nxt = byCoord.at(0, c[2], (spread/half)%half)
				}
			case 0: // core switch: down to the destination pod's agg in this row
				nxt = byCoord.at(1, dPod, c[1])
			default:
				return fmt.Errorf("routing: unknown fat-tree layer %d", c[0])
			}
			out := csr.PortTo(s, nxt)
			if out == 0 {
				return fmt.Errorf("routing: fat-tree: no link %d->%d", s, nxt)
			}
			emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any, OutPort: out, NewTag: -1})
		}
		return nil
	}, nil
}

// fatTreeCoords maps the (layer, a, b) coordinates of a fat-tree's
// core (0), aggregation (1) and edge (2) switches to their vertex IDs,
// one dense a-by-b table per layer. Coordinates no switch holds read 0,
// as a miss in the map this replaced did; no lookup reads other layers.
type fatTreeCoords [3]struct {
	ids        []int32 // a*cols + b -> switch
	rows, cols int
}

// grow sizes the layer's table to hold (a, b); set stores into it.
func (t *fatTreeCoords) grow(layer, a, b int) {
	if layer < len(t) {
		l := &t[layer]
		l.rows, l.cols = max(l.rows, a+1), max(l.cols, b+1)
	}
}

func (t *fatTreeCoords) set(layer, a, b, id int) {
	if layer < len(t) {
		l := &t[layer]
		if l.ids == nil {
			l.ids = make([]int32, l.rows*l.cols)
		}
		l.ids[a*l.cols+b] = int32(id)
	}
}

func (t *fatTreeCoords) at(layer, a, b int) int {
	if l := &t[layer]; uint(a) < uint(l.rows) && uint(b) < uint(l.cols) {
		return int(l.ids[a*l.cols+b])
	}
	return 0
}

// DragonflyMinimal is Table III's Dragonfly routing: minimal paths
// (local, global, local) with deadlock avoidance by changing VC after
// the global hop (Dally & Aoki / Kim et al.): tag 0 in the source
// group, tag 1 once inside the destination group.
type DragonflyMinimal struct{}

// Name implements Strategy.
func (DragonflyMinimal) Name() string { return "dragonfly-minimal" }

// Compute implements Strategy.
func (s DragonflyMinimal) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, s.plan(), nil)
}

// ComputeFor implements DstComputer.
func (s DragonflyMinimal) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, s.plan(), dsts)
}

func (DragonflyMinimal) plan() dstPlan { return dstPlan{"dragonfly-minimal", 2, dragonflyBuilder} }

// dragonflyBuilder indexes the group structure once and returns the
// per-destination minimal-path rule build.
func dragonflyBuilder(g *topology.Graph) (func(dst int, emit func(Rule)) error, error) {
	df, err := indexDragonfly(g)
	if err != nil {
		return nil, err
	}
	csr := g.CSR()
	return func(dst int, emit func(Rule)) error {
		D := g.HostSwitch(dst)
		gd := g.Vertices[D].Coord[0]
		for _, s := range g.Switches() {
			gs := g.Vertices[s].Coord[0]
			if gs == gd {
				// Inside destination group: deliver or one local hop.
				// Tag Any covers both intra-group traffic (tag 0) and
				// arrivals from the global hop (tag 1).
				if s == D {
					emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
						OutPort: csr.PortTo(s, dst), NewTag: -1})
				} else {
					emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
						OutPort: csr.PortTo(s, D), NewTag: -1})
				}
				continue
			}
			gw, ok := df.gateway(gs, gd)
			if !ok {
				return fmt.Errorf("routing: no global link %d->%d", gs, gd)
			}
			if s == gw {
				// Cross the global link, switching to VC 1.
				peer := df.globalPeer(s, gd)
				emit(Rule{Switch: s, Dst: dst, Tag: 0,
					OutPort: csr.PortTo(s, peer), NewTag: 1})
			} else {
				emit(Rule{Switch: s, Dst: dst, Tag: 0,
					OutPort: csr.PortTo(s, gw), NewTag: -1})
			}
		}
		return nil
	}, nil
}

// dragonflyIndex caches group structure for dragonfly strategies. Its
// lists are windows of two arrays sized once per index, so it takes a
// fixed number of allocations whatever the fabric. Its storage grows
// with the switches and global links, not with the square of the group
// count, which a configuration file's sparse group numbers can make the
// square of the switch count.
type dragonflyIndex struct {
	g      *topology.Graph
	groups [][]int  // group -> routers, ascending
	gates  [][]gate // group -> its routers' global links, in edge order
}

// gate is one global link seen from one end: router, in the group
// whose list holds the gate, reaches peer, in group dst.
type gate struct{ dst, router, peer int }

func indexDragonfly(g *topology.Graph) (*dragonflyIndex, error) {
	maxGroup := -1
	for _, s := range g.Switches() {
		c := g.Vertices[s].Coord
		if len(c) != 2 {
			return nil, fmt.Errorf("routing: %s: switch %d lacks dragonfly coords", g.Name, s)
		}
		if c[0] < 0 || c[0] >= len(g.Switches()) {
			return nil, fmt.Errorf("routing: %s: switch %d has dragonfly group %d outside [0, %d)", g.Name, s, c[0], len(g.Switches()))
		}
		if c[0] > maxGroup {
			maxGroup = c[0]
		}
	}
	n := maxGroup + 1
	group := func(v int) int { return g.Vertices[v].Coord[0] }
	global := func(e topology.Edge) bool { return g.IsSwitchSwitch(e) && group(e.A) != group(e.B) }
	// Count each group's routers (at count[grp]) and global links (at
	// count[n+grp]), then hand each group a window of each array, with
	// its count as capacity, for the appends below to fill in place.
	count := make([]int, 2*n)
	halfLinks := 0
	for _, s := range g.Switches() {
		count[group(s)]++
	}
	for _, e := range g.Edges {
		if global(e) {
			count[n+group(e.A)]++
			count[n+group(e.B)]++
			halfLinks += 2
		}
	}
	df := &dragonflyIndex{g: g, groups: make([][]int, n), gates: make([][]gate, n)}
	routers, gates := make([]int, len(g.Switches())), make([]gate, halfLinks)
	for grp := range n {
		df.groups[grp], routers = routers[:0:count[grp]], routers[count[grp]:]
		df.gates[grp], gates = gates[:0:count[n+grp]], gates[count[n+grp]:]
	}
	for _, s := range g.Switches() {
		df.groups[group(s)] = append(df.groups[group(s)], s)
	}
	for _, e := range g.Edges {
		if global(e) {
			ga, gb := group(e.A), group(e.B)
			df.gates[ga] = append(df.gates[ga], gate{dst: gb, router: e.A, peer: e.B})
			df.gates[gb] = append(df.gates[gb], gate{dst: ga, router: e.B, peer: e.A})
		}
	}
	return df, nil
}

// gateway returns the router in srcGroup owning the global link toward
// dstGroup: of several, the last in edge order.
func (df *dragonflyIndex) gateway(srcGroup, dstGroup int) (router int, ok bool) {
	gates := df.gates[srcGroup]
	for i := len(gates) - 1; i >= 0; i-- {
		if gates[i].dst == dstGroup {
			return gates[i].router, true
		}
	}
	return 0, false
}

// globalPeer returns the router across router's global link toward
// dstGroup (of several, the last in edge order), or 0 if it has none.
func (df *dragonflyIndex) globalPeer(router, dstGroup int) int {
	gates := df.gates[df.g.Vertices[router].Coord[0]]
	for i := len(gates) - 1; i >= 0; i-- {
		if gates[i].router == router && gates[i].dst == dstGroup {
			return gates[i].peer
		}
	}
	return 0
}

// MeshXY is Table III's 2D-Mesh strategy: dimension-order X-Y routing,
// deadlock-free by routing ("by routing" in the paper — XY forbids the
// deadlocking turns). Single VC.
type MeshXY struct{}

// Name implements Strategy.
func (MeshXY) Name() string { return "mesh-xy" }

// Compute implements Strategy.
func (s MeshXY) Compute(g *topology.Graph) (*Routes, error) { return computeStrategy(g, s.plan(), nil) }

// ComputeFor implements DstComputer.
func (s MeshXY) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, s.plan(), dsts)
}

func (MeshXY) plan() dstPlan { return dimensionOrder(2, false, "mesh-xy") }

// MeshXYZ is Table III's 3D-Mesh strategy: X-Y-Z dimension order.
type MeshXYZ struct{}

// Name implements Strategy.
func (MeshXYZ) Name() string { return "mesh-xyz" }

// Compute implements Strategy.
func (s MeshXYZ) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, s.plan(), nil)
}

// ComputeFor implements DstComputer.
func (s MeshXYZ) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, s.plan(), dsts)
}

func (MeshXYZ) plan() dstPlan { return dimensionOrder(3, false, "mesh-xyz") }

// TorusClue is Table III's 2D/3D-Torus strategy, after Clue (Xiang &
// Luo): dimension-order routing with shortest wrap-around direction and
// deadlock avoidance "by routing and changing VC" — a dateline VC per
// dimension: packets start each dimension on VC 0 and switch to VC 1
// after crossing the wrap link.
type TorusClue struct {
	Dims int // 2 or 3
}

// Name implements Strategy.
func (t TorusClue) Name() string { return fmt.Sprintf("torus-clue-%dd", t.dims()) }

func (t TorusClue) dims() int {
	if t.Dims == 3 {
		return 3
	}
	return 2
}

// Compute implements Strategy.
func (t TorusClue) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, t.plan(), nil)
}

// ComputeFor implements DstComputer.
func (t TorusClue) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, t.plan(), dsts)
}

func (t TorusClue) plan() dstPlan { return dimensionOrder(t.dims(), true, t.Name()) }

// dimensionOrder is the plan of XY/XYZ (mesh) and dateline-VC dimension
// order (torus) routing. Switch coordinates must be dims-long grid
// positions.
func dimensionOrder(dims int, torus bool, name string) dstPlan {
	vcs := 1
	if torus {
		vcs = 2
	}
	return dstPlan{name, vcs, func(g *topology.Graph) (func(dst int, emit func(Rule)) error, error) {
		return dimensionOrderBuilder(g, dims, torus)
	}}
}

// dimensionOrderBuilder validates grid coordinates and precomputes the
// coordinate index and per-dimension port lists once, returning the
// per-destination rule build.
func dimensionOrderBuilder(g *topology.Graph, dims int, torus bool) (func(dst int, emit func(Rule)) error, error) {
	// A grid the switches cannot fill has a hole that dimension-order
	// routes run into. Refusing it before byCoord is sized keeps a
	// configuration file's coordinates from sizing it.
	n := len(g.Switches())
	size := make([]int, dims)
	for _, s := range g.Switches() {
		c := g.Vertices[s].Coord
		if len(c) < dims {
			return nil, fmt.Errorf("routing: %s: switch %d lacks %dD coords", g.Name, s, dims)
		}
		for d := 0; d < dims; d++ {
			if c[d] < 0 || c[d] >= n {
				return nil, fmt.Errorf("routing: %s: switch %d has coords %v, outside a grid of %d switches", g.Name, s, c[:dims], n)
			}
			size[d] = max(size[d], c[d]+1)
		}
	}
	span := 1
	for d := 0; d < dims; d++ {
		if size[d] == 0 || span > n/size[d] {
			return nil, fmt.Errorf("routing: %s: switch coords span a %v grid, more than its %d switches", g.Name, size, n)
		}
		span *= size[d]
	}
	// Dense integer coordinate index (replaces a per-lookup fmt.Sprint
	// string key): lin(c) = (c[0]*size[1] + c[1])*size[2] + c[2].
	lin := func(c []int) int {
		k := 0
		for d := 0; d < dims; d++ {
			k = k*size[d] + c[d]
		}
		return k
	}
	byCoord := make([]int32, span)
	for i := range byCoord {
		byCoord[i] = -1
	}
	for _, s := range g.Switches() {
		c := g.Vertices[s].Coord
		if prev := byCoord[lin(c)]; prev >= 0 {
			return nil, fmt.Errorf("routing: %s: switches %d and %d share coords %v", g.Name, prev, s, c[:dims])
		}
		byCoord[lin(c)] = int32(s)
	}
	// Hoist the per-dimension port lists out of the destination loop:
	// they depend only on (switch, dimension), and recomputing them per
	// (destination, switch) was the torus strategies' dominant cost.
	var along dimensionPorts
	if torus {
		along = newDimensionPorts(g, dims)
	}
	csr := g.CSR()

	return func(dst int, emit func(Rule)) error {
		D := g.HostSwitch(dst)
		dc := g.Vertices[D].Coord
		for _, s := range g.Switches() {
			sc := g.Vertices[s].Coord
			if s == D {
				emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
					OutPort: csr.PortTo(s, dst), NewTag: -1})
				continue
			}
			// First differing dimension in X..Z order.
			dim := -1
			for d := 0; d < dims; d++ {
				if sc[d] != dc[d] {
					dim = d
					break
				}
			}
			// Step direction: mesh moves straight toward the target;
			// torus takes the shorter way around (ties positive).
			step := 1
			n := size[dim]
			if torus {
				if fwd := (dc[dim] - sc[dim] + n) % n; fwd > n-fwd {
					step = -1
				}
			} else if dc[dim] < sc[dim] {
				step = -1
			}
			var coordBuf [3]int
			nxtCoord := coordBuf[:dims]
			copy(nxtCoord, sc[:dims])
			nxtCoord[dim] = sc[dim] + step
			wrap := false
			if torus {
				if nxtCoord[dim] < 0 {
					nxtCoord[dim] = n - 1
					wrap = true
				} else if nxtCoord[dim] >= n {
					nxtCoord[dim] = 0
					wrap = true
				}
			}
			nxt := int32(-1)
			if nxtCoord[dim] >= 0 && nxtCoord[dim] < n {
				nxt = byCoord[lin(nxtCoord)]
			}
			// The errors format a copy of nxtCoord: formatting coordBuf's
			// own slice would move it to the heap on every iteration.
			if nxt < 0 {
				return fmt.Errorf("routing: %s: no switch at %v", g.Name, slices.Clone(nxtCoord))
			}
			out := csr.PortTo(s, int(nxt))
			if out == 0 {
				return fmt.Errorf("routing: %s: missing link %v->%v", g.Name, sc, slices.Clone(nxtCoord))
			}
			if !torus {
				emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any, OutPort: out, NewTag: -1})
				continue
			}
			// Torus: the outgoing VC depends on whether the packet is
			// entering this dimension (reset to 0) or continuing
			// (keep), and whether this hop crosses the dateline (set
			// 1). Entry vs continuation is distinguished by ingress
			// port: arrivals from the same dimension are continuations.
			newTagEnter := 0
			if wrap {
				newTagEnter = 1
			}
			newTagCont := -1
			if wrap {
				newTagCont = 1
			}
			// Continuation rules (specific in-ports, keep/flip tag).
			for _, p := range along.of(s, dim) {
				emit(Rule{Switch: s, InPort: int(p), Dst: dst, Tag: openflow.Any,
					OutPort: out, NewTag: newTagCont})
			}
			// Entry rule (any other ingress: host injection or a
			// previous dimension): reset VC.
			emit(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
				OutPort: out, NewTag: newTagEnter})
		}
		return nil
	}, nil
}

// dimensionPorts lists every switch's logical ports whose links travel
// along one dimension (the neighbour differs only in that coordinate):
// those of switch s along dimension d are
// ports[start[s*dims+d]:start[s*dims+d+1]], ascending.
type dimensionPorts struct {
	dims  int
	start []int32
	ports []int32
}

// newDimensionPorts indexes g's switch ports by dimension in two passes
// over the switches' CSR rows: one counts each (switch, dimension) row
// at start[row+2], so that after the prefix sum start[row+1] is where
// the row begins, and one places the ports, advancing start[row+1] to
// where the row ends.
func newDimensionPorts(g *topology.Graph, dims int) dimensionPorts {
	dp := dimensionPorts{dims: dims, start: make([]int32, len(g.Vertices)*dims+2)}
	csr := g.CSR()
	for _, s := range g.Switches() {
		for _, o := range csr.Nbr[csr.Start[s]:csr.Start[s+1]] {
			if d := dimensionOf(g, s, int(o), dims); d >= 0 {
				dp.start[s*dims+d+2]++
			}
		}
	}
	for i := 2; i < len(dp.start); i++ {
		dp.start[i] += dp.start[i-1]
	}
	dp.ports = make([]int32, dp.start[len(dp.start)-1])
	for _, s := range g.Switches() {
		for i := csr.Start[s]; i < csr.Start[s+1]; i++ {
			if d := dimensionOf(g, s, int(csr.Nbr[i]), dims); d >= 0 {
				row := s*dims + d
				dp.ports[dp.start[row+1]] = csr.Port[i]
				dp.start[row+1]++
			}
		}
	}
	dp.start = dp.start[:len(dp.start)-1]
	for row := 0; row+1 < len(dp.start); row++ {
		slices.Sort(dp.ports[dp.start[row]:dp.start[row+1]])
	}
	return dp
}

// of returns switch s's ports along dimension d.
func (dp dimensionPorts) of(s, d int) []int32 {
	row := s*dp.dims + d
	return dp.ports[dp.start[row]:dp.start[row+1]]
}

// dimensionOf returns the dimension along which a link from switch s to
// its neighbour o runs — the one coordinate in which o differs — or -1
// if o is a host or differs in no or several coordinates.
func dimensionOf(g *topology.Graph, s, o, dims int) int {
	if g.Vertices[o].Kind != topology.Switch {
		return -1
	}
	sc, oc := g.Vertices[s].Coord, g.Vertices[o].Coord
	diff := -1
	for d := 0; d < dims; d++ {
		if oc[d] != sc[d] {
			if diff >= 0 {
				return -1
			}
			diff = d
		}
	}
	return diff
}

// ForTopology returns the Table III strategy for a topology by its
// generator family (topology.Graph.Family: set by the generator, kept
// when a configuration file renames the graph, and read from the name's
// prefix for an explicit file); any other family, zoo graphs included,
// falls back to shortest-path.
func ForTopology(g *topology.Graph) Strategy {
	switch g.Family {
	case "fattree":
		return FatTreeDFS{}
	case "dragonfly":
		return DragonflyMinimal{}
	case "mesh2d":
		return MeshXY{}
	case "mesh3d":
		return MeshXYZ{}
	case "torus2d":
		return TorusClue{Dims: 2}
	case "torus3d":
		return TorusClue{Dims: 3}
	default:
		return ShortestPath{}
	}
}
