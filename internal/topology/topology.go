// Package topology models logical network topologies for Topology
// Projection (TP).
//
// A Graph holds two kinds of vertices — switches and hosts — joined by
// undirected edges. Every edge occupies one numbered port at each
// endpoint, mirroring how the SDT paper labels logical-switch ports
// before projecting them onto a physical switch (§IV). Generators for
// the topologies evaluated in the paper (Fat-Tree, Dragonfly, Mesh,
// Torus, BCube, HyperBCube and a synthetic Internet Topology Zoo) live
// in generators.go and zoo.go.
package topology

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"
	"sync/atomic"
)

// Kind distinguishes switch vertices from host (compute node) vertices.
type Kind int

const (
	// Switch vertices forward traffic and are the targets of projection.
	Switch Kind = iota
	// Host vertices terminate traffic (compute nodes / VMs).
	Host
)

// String returns "switch" or "host".
func (k Kind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Vertex is one node of the logical topology.
type Vertex struct {
	ID    int    // dense index into Graph.Vertices
	Kind  Kind   // switch or host
	Label string // human-readable name, unique within the graph
	// Coord carries generator-specific coordinates: mesh/torus positions,
	// Dragonfly (group, router), Fat-Tree (layer, pod, index), etc.
	// Routing strategies consume these coordinates.
	Coord []int
}

// Edge is an undirected logical link. It occupies port APort on vertex A
// and port BPort on vertex B. Ports are numbered from 1 within each
// vertex, matching the paper's port-labelling convention.
type Edge struct {
	ID    int
	A, B  int
	APort int
	BPort int
}

// Other returns the endpoint of e opposite to vertex v.
func (e Edge) Other(v int) int {
	if e.A == v {
		return e.B
	}
	return e.A
}

// PortAt returns the port number edge e occupies on vertex v.
func (e Edge) PortAt(v int) int {
	if e.A == v {
		return e.APort
	}
	return e.BPort
}

// Graph is a logical topology: the input to Topology Projection.
type Graph struct {
	Name string
	// Family is the generator-table row the graph's shape comes from
	// ("fattree", "torus2d", ...; see Generators), or "" for any other
	// shape. Routing picks a topology's Table III strategy by it, so
	// renaming a graph does not change how it is routed.
	Family   string
	Vertices []Vertex
	Edges    []Edge

	// nextPort, switchIDs and hostIDs are kept current by every mutation
	// (AddSwitch, AddHost, ConnectPorts append to them), so their
	// accessors are plain reads. Every vertex's Coord is a window of
	// coords. The CSR, the graph's one adjacency index, is built from
	// Edges on first use, and every mutation drops it.
	nextPort  []int // next free port per vertex
	switchIDs []int
	hostIDs   []int
	coords    []int
	// labels and labelEnd hold the labels of a graph a generator is
	// building, until seal hands them to the vertices.
	labels   []byte
	labelEnd []int32
	csr      atomic.Pointer[CSR]
}

// New returns an empty topology with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddSwitch appends a switch vertex and returns its ID. An empty label
// becomes "switch" followed by the ID.
func (g *Graph) AddSwitch(label string, coord ...int) int {
	return g.addVertex(Switch, defaultLabel(label, Switch, len(g.Vertices)), coord)
}

// AddHost appends a host vertex and returns its ID. An empty label
// becomes "host" followed by the ID.
func (g *Graph) AddHost(label string, coord ...int) int {
	return g.addVertex(Host, defaultLabel(label, Host, len(g.Vertices)), coord)
}

func defaultLabel(label string, k Kind, id int) string {
	if label != "" {
		return label
	}
	return k.String() + strconv.Itoa(id)
}

// addVertex appends a vertex whose Coord is a copy of coord, held in
// the graph's coordinate array with its capacity clipped, so that no
// vertex's coordinates can grow into the next one's.
func (g *Graph) addVertex(k Kind, label string, coord []int) int {
	id := len(g.Vertices)
	var c []int
	if len(coord) > 0 {
		lo := len(g.coords)
		g.coords = append(g.coords, coord...)
		c = g.coords[lo:len(g.coords):len(g.coords)]
	}
	g.Vertices = append(g.Vertices, Vertex{ID: id, Kind: k, Label: label, Coord: c})
	g.nextPort = append(g.nextPort, 1)
	if k == Switch {
		g.switchIDs = append(g.switchIDs, id)
	} else {
		g.hostIDs = append(g.hostIDs, id)
	}
	g.csr.Store(nil)
	return id
}

// add appends a vertex of a generated graph, labelled prefix followed
// by nums joined by '-' — the label fmt.Sprintf(prefix+"%d-%d...",
// nums...) would write — and returns its ID. The label is written into
// the graph's label buffer; seal gives it to the vertex. A generator
// adds every vertex with add and returns its graph sealed.
func (g *Graph) add(k Kind, coord []int, prefix string, nums ...int) int {
	g.labels = append(g.labels, prefix...)
	for i, n := range nums {
		if i > 0 {
			g.labels = append(g.labels, '-')
		}
		g.labels = strconv.AppendInt(g.labels, int64(n), 10)
	}
	g.labelEnd = append(g.labelEnd, int32(len(g.labels)))
	return g.addVertex(k, "", coord)
}

// labelLen is the length of the label add writes for prefix and nums;
// called with a generator's largest nums, it bounds every label's.
func labelLen(prefix string, nums ...int) int {
	n := len(prefix) + max(len(nums)-1, 0)
	var digits [20]byte
	for _, x := range nums {
		n += len(strconv.AppendInt(digits[:0], int64(x), 10))
	}
	return n
}

// seal converts the label buffer to one string and gives each vertex
// its label, a substring of it. Every vertex must have been added with
// add, as labelEnd is indexed by vertex ID.
func (g *Graph) seal() *Graph {
	if len(g.labelEnd) != len(g.Vertices) {
		panic(fmt.Sprintf("topology: %s has %d labels for %d vertices: a generator added a vertex without add", g.Name, len(g.labelEnd), len(g.Vertices)))
	}
	all := string(g.labels)
	lo := int32(0)
	for v, hi := range g.labelEnd {
		g.Vertices[v].Label = all[lo:hi]
		lo = hi
	}
	g.labels, g.labelEnd = nil, nil
	return g
}

// reserve sizes the storage of a graph about to receive the given
// numbers of switches, hosts and edges, coordinate values over all
// vertices and (at most) label bytes, so that a generator which knows
// its size builds without regrowing any of it (append's 1.25× steps
// past 256 elements allocate several times the final size along the
// way).
func (g *Graph) reserve(switches, hosts, edges, coords, labelBytes int) {
	nv := switches + hosts
	g.Vertices = slices.Grow(g.Vertices, nv)
	g.nextPort = slices.Grow(g.nextPort, nv)
	g.switchIDs = slices.Grow(g.switchIDs, switches)
	g.hostIDs = slices.Grow(g.hostIDs, hosts)
	g.Edges = slices.Grow(g.Edges, edges)
	g.coords = slices.Grow(g.coords, coords)
	g.labels = slices.Grow(g.labels, labelBytes)
	g.labelEnd = slices.Grow(g.labelEnd, nv)
}

// Connect adds an undirected edge between vertices a and b, assigning the
// next free port on each side, and returns the edge ID.
func (g *Graph) Connect(a, b int) int {
	pa := g.nextPort[a]
	pb := g.nextPort[b]
	if a == b {
		pb = pa + 1
	}
	return g.ConnectPorts(a, pa, b, pb)
}

// ConnectPorts adds an undirected edge with explicit port numbers.
// It panics if a vertex ID is out of range; port conflicts are caught by
// Validate.
func (g *Graph) ConnectPorts(a, aPort, b, bPort int) int {
	if a < 0 || a >= len(g.Vertices) || b < 0 || b >= len(g.Vertices) {
		panic(fmt.Sprintf("topology: Connect(%d,%d) out of range", a, b))
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, A: a, APort: aPort, B: b, BPort: bPort})
	if aPort >= g.nextPort[a] {
		g.nextPort[a] = aPort + 1
	}
	if bPort >= g.nextPort[b] {
		g.nextPort[b] = bPort + 1
	}
	g.csr.Store(nil)
	return id
}

// CSR is the compressed-sparse-row adjacency of a Graph, its one
// adjacency index: vertex v's incident half-edges occupy positions
// Start[v]..Start[v+1]-1 of the parallel Nbr/Port/Edge arrays, sorted
// by neighbour vertex ID, ties broken by edge ID (so parallel edges
// stay deterministic). A self loop sits once in its vertex's row, with
// its A port.
//
// A CSR is immutable once built; Graph.CSR memoizes it and any graph
// mutation invalidates the cache.
type CSR struct {
	Start []int32 // len(Vertices)+1 row offsets
	Nbr   []int32 // neighbour vertex IDs, ascending within each row
	Port  []int32 // port number at the row vertex for this half-edge
	Edge  []int32 // logical edge ID of this half-edge
}

// Row returns the half-edge index range [lo, hi) for vertex v.
func (c *CSR) Row(v int) (lo, hi int32) { return c.Start[v], c.Start[v+1] }

// find returns the half-edge of from's row toward to with the lowest
// edge ID, or -1 if they are not adjacent, by binary search over the
// row's ascending neighbours.
func (c *CSR) find(from, to int) int32 {
	lo, hi := c.Start[from], c.Start[from+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Nbr[mid] < int32(to) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.Start[from+1] && c.Nbr[lo] == int32(to) {
		return lo
	}
	return -1
}

// PortTo returns the port on `from` leading to neighbour `to`, or 0 if
// they are not adjacent, in O(log deg). With multiple parallel edges the
// lowest edge ID wins.
func (c *CSR) PortTo(from, to int) int {
	if i := c.find(from, to); i >= 0 {
		return int(c.Port[i])
	}
	return 0
}

// EdgeAt returns the ID of the edge behind port `port` of v, or -1 if
// no edge uses it. Ports are unique per vertex, so at most one
// half-edge of the row carries it.
func (c *CSR) EdgeAt(v, port int) int {
	for e := c.Start[v]; e < c.Start[v+1]; e++ {
		if int(c.Port[e]) == port {
			return int(c.Edge[e])
		}
	}
	return -1
}

// CSR returns the memoized compressed-sparse-row view, building it on
// first use. The cache is an atomic pointer, so concurrent readers that
// race on the first build each construct an identical view without a
// data race (one of them wins the cache slot); mutating the graph while
// CSR is called concurrently is a caller error, as with every other
// lazy accessor.
func (g *Graph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := newCSR(len(g.Vertices), g.Edges)
	g.csr.Store(c)
	return c
}

// newCSR indexes edges over n vertices; every endpoint must be in
// [0, n) and every edge's ID its index in edges. One counting pass
// sizes the rows: it counts vertex v's half-edges at start[v+2], so
// that after the prefix sum start[v+1] is where row v begins, and
// placing each half-edge there and advancing start[v+1] leaves it where
// row v ends. The rows are filled in edge-ID order, out of one buffer
// that Nbr, Port and Edge slice three ways, and then each row whose
// neighbours do not already ascend is sorted in place.
func newCSR(n int, edges []Edge) *CSR {
	start := make([]int32, n+2)
	for _, e := range edges {
		start[e.A+2]++
		if e.B != e.A {
			start[e.B+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	total := int(start[n+1])
	buf := make([]int32, 3*total)
	c := &CSR{
		Start: start[:n+1],
		Nbr:   buf[:total:total],
		Port:  buf[total : 2*total : 2*total],
		Edge:  buf[2*total:],
	}
	place := func(v, nbr, port, id int) {
		i := start[v+1]
		start[v+1]++
		c.Nbr[i], c.Port[i], c.Edge[i] = int32(nbr), int32(port), int32(id)
	}
	for _, e := range edges {
		place(e.A, e.B, e.APort, e.ID)
		if e.B != e.A {
			place(e.B, e.A, e.BPort, e.ID)
		}
	}
	for v := 0; v < n; v++ {
		if lo, hi := c.Row(v); !c.rowSorted(lo, hi) {
			c.sortRow(v, edges)
		}
	}
	return c
}

// rowSorted reports whether half-edges [lo, hi) ascend by (neighbour,
// edge ID).
func (c *CSR) rowSorted(lo, hi int32) bool {
	for i := lo + 1; i < hi; i++ {
		if c.Nbr[i-1] > c.Nbr[i] || c.Nbr[i-1] == c.Nbr[i] && c.Edge[i-1] > c.Edge[i] {
			return false
		}
	}
	return true
}

// sortRow sorts vertex v's half-edges by (neighbour, edge ID) without
// allocating: it sorts the row's Edge window, reading each neighbour
// from edges, and then rewrites Nbr and Port from the sorted edges.
// Edge IDs are distinct within a row, so the order is total and the
// sort need not be stable.
func (c *CSR) sortRow(v int, edges []Edge) {
	lo, hi := c.Row(v)
	slices.SortFunc(c.Edge[lo:hi], func(a, b int32) int {
		if na, nb := edges[a].Other(v), edges[b].Other(v); na != nb {
			return cmp.Compare(na, nb)
		}
		return cmp.Compare(a, b)
	})
	for i := lo; i < hi; i++ {
		e := &edges[c.Edge[i]]
		c.Nbr[i], c.Port[i] = int32(e.Other(v)), int32(e.PortAt(v))
	}
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	lo, hi := g.CSR().Row(v)
	return int(hi - lo)
}

// Switches returns the IDs of all switch vertices in ascending order.
func (g *Graph) Switches() []int {
	return g.switchIDs
}

// Hosts returns the IDs of all host vertices in ascending order.
func (g *Graph) Hosts() []int {
	return g.hostIDs
}

// NumSwitches reports the number of switch vertices.
func (g *Graph) NumSwitches() int { return len(g.Switches()) }

// NumHosts reports the number of host vertices.
func (g *Graph) NumHosts() int { return len(g.Hosts()) }

// SwitchPortCount returns the total number of ports occupied on switch
// vertices, excluding ports that face hosts. This is the quantity the
// paper compares against the physical switch port budget (§IV-A): "a
// topology can be appropriately built if the total number of ports in
// the topology is less than or equal to the number of ports on the
// physical switch (excluding the ports connected to the end hosts)".
func (g *Graph) SwitchPortCount() int {
	n := 0
	for _, e := range g.Edges {
		if g.Vertices[e.A].Kind == Switch && g.Vertices[e.B].Kind == Switch {
			n += 2
		}
	}
	return n
}

// HostFacingPorts returns the number of switch ports that face hosts.
func (g *Graph) HostFacingPorts() int {
	n := 0
	for _, e := range g.Edges {
		ka, kb := g.Vertices[e.A].Kind, g.Vertices[e.B].Kind
		if ka != kb {
			n++
		}
	}
	return n
}

// SwitchSwitchEdges returns the IDs of edges whose both endpoints are
// switches (the links projection must realise). It builds a slice on
// every call; a caller that only walks or counts them ranges over Edges
// with IsSwitchSwitch, or calls NumSwitchSwitchEdges.
func (g *Graph) SwitchSwitchEdges() []int {
	var out []int
	for _, e := range g.Edges {
		if g.IsSwitchSwitch(e) {
			out = append(out, e.ID)
		}
	}
	return out
}

// IsSwitchSwitch reports whether both endpoints of e are switches.
func (g *Graph) IsSwitchSwitch(e Edge) bool {
	return g.Vertices[e.A].Kind == Switch && g.Vertices[e.B].Kind == Switch
}

// NumSwitchSwitchEdges returns the number of edges whose both endpoints
// are switches.
func (g *Graph) NumSwitchSwitchEdges() int {
	n := 0
	for _, e := range g.Edges {
		if g.IsSwitchSwitch(e) {
			n++
		}
	}
	return n
}

// Radix returns the maximum switch degree (ports per logical switch).
func (g *Graph) Radix() int {
	r := 0
	for _, v := range g.Switches() {
		if d := g.Degree(v); d > r {
			r = d
		}
	}
	return r
}

// EdgeBetween returns the lowest ID of the edges joining a and b, or
// -1.
func (g *Graph) EdgeBetween(a, b int) int {
	c := g.CSR()
	if i := c.find(a, b); i >= 0 {
		return int(c.Edge[i])
	}
	return -1
}

// Validate checks structural invariants: endpoint ranges, port numbers
// positive and unique per vertex, unique labels, and hosts having at
// most one link. A nil return means the topology is projectable input.
//
// Of several violations it reports a duplicate label first, then the
// first offending edge in edge order — its range, its port signs, a
// same-port self loop, then a port its A side and then its B side
// shares with an earlier edge — and last a multi-homed host.
func (g *Graph) Validate() error {
	if first, dup := g.duplicateLabel(); dup >= 0 {
		v := &g.Vertices[dup]
		return fmt.Errorf("topology %q: duplicate label %q on vertices %d and %d", g.Name, v.Label, g.Vertices[first].ID, v.ID)
	}
	// The first edge that is wrong on its own ends the prefix of edges
	// that can be reported for sharing a port.
	sound := len(g.Edges)
	var edgeErr error
	for i, e := range g.Edges {
		switch {
		case e.A < 0 || e.A >= len(g.Vertices) || e.B < 0 || e.B >= len(g.Vertices):
			edgeErr = fmt.Errorf("topology %q: edge %d endpoint out of range", g.Name, e.ID)
		case e.APort < 1 || e.BPort < 1:
			edgeErr = fmt.Errorf("topology %q: edge %d has non-positive port", g.Name, e.ID)
		case e.A == e.B && e.APort == e.BPort:
			edgeErr = fmt.Errorf("topology %q: edge %d is a same-port self loop", g.Name, e.ID)
		default:
			continue
		}
		sound = i
		break
	}
	// When every edge is sound the port check reads the graph's own
	// CSR, which the routing that follows reuses.
	var c *CSR
	if edgeErr == nil {
		c = g.CSR()
	} else {
		c = newCSR(len(g.Vertices), g.Edges[:sound])
	}
	if err := g.portClash(c); err != nil {
		return err
	}
	if edgeErr != nil {
		return edgeErr
	}
	for _, h := range g.Hosts() {
		if g.Degree(h) > 1 {
			return fmt.Errorf("topology %q: host %d has %d links (max 1)", g.Name, h, g.Degree(h))
		}
	}
	return nil
}

// labelSeed seeds the label hash of duplicateLabel.
var labelSeed = maphash.MakeSeed()

// duplicateLabel returns the first vertex, in vertex order, whose label
// an earlier vertex carries, and the first vertex that carries it, as
// indices into Vertices; dup is -1 when every label is unique. The
// labels go into one open-addressed table of vertex indices, at least
// twice the vertices in size and probed linearly from the label's
// hash, so the check allocates one []int32 and no per-label entry.
// Every label seen so far sits in the table once, as its first vertex,
// so the probe order cannot change which pair is reported.
func (g *Graph) duplicateLabel() (first, dup int) {
	size := 1
	for size < 2*len(g.Vertices) {
		size <<= 1
	}
	table := make([]int32, size) // a vertex index + 1; 0 = empty
	mask := uint64(size - 1)
	for i := range g.Vertices {
		label := g.Vertices[i].Label
		for h := maphash.String(labelSeed, label) & mask; ; h = (h + 1) & mask {
			j := int(table[h]) - 1
			if j < 0 {
				table[h] = int32(i + 1)
				break
			}
			if g.Vertices[j].Label == label {
				return j, i
			}
		}
	}
	return -1, -1
}

// portUse is one port occupied on a vertex: by edge, on its A (side 0)
// or B (side 1) end.
type portUse struct{ port, edge, side int }

func comparePortUses(a, b portUse) int {
	if a.port != b.port {
		return cmp.Compare(a.port, b.port)
	}
	if a.edge != b.edge {
		return cmp.Compare(a.edge, b.edge)
	}
	return cmp.Compare(a.side, b.side)
}

// portClash returns the first port in (edge, side) order that a vertex
// has already given to an earlier edge, as an error naming that edge,
// or nil. It sorts every CSR row's port uses; a self loop sits once in
// its row but occupies two ports there, so its edge's B port is added
// as a use of its own.
func (g *Graph) portClash(c *CSR) error {
	var (
		uses         []portUse
		first, clash portUse
		clashV       = -1
	)
	for v := 0; v+1 < len(c.Start); v++ {
		lo, hi := c.Row(v)
		uses = uses[:0]
		for i := lo; i < hi; i++ {
			e := &g.Edges[c.Edge[i]]
			if e.A == v {
				uses = append(uses, portUse{e.APort, e.ID, 0})
			}
			if e.B == v {
				uses = append(uses, portUse{e.BPort, e.ID, 1})
			}
		}
		if len(uses) < 2 {
			continue
		}
		slices.SortFunc(uses, comparePortUses)
		for i := 1; i < len(uses); i++ {
			u := uses[i]
			if u.port != uses[i-1].port {
				continue
			}
			// The port's first use is its lowest edge, and u the first
			// reuse: one edge never holds a port twice here.
			if clashV < 0 || u.edge < clash.edge || u.edge == clash.edge && u.side < clash.side {
				first, clash, clashV = uses[i-1], u, v
			}
			for i+1 < len(uses) && uses[i+1].port == u.port {
				i++
			}
		}
	}
	if clashV < 0 {
		return nil
	}
	return fmt.Errorf("topology %q: port %d on vertex %d used by edges %d and %d",
		g.Name, clash.port, clashV, first.edge, clash.edge)
}

// HostSwitch returns the switch a host is attached to, or -1 for an
// orphan host. Of a multi-homed host's switches it returns the one
// behind the lowest edge ID.
func (g *Graph) HostSwitch(h int) int {
	c := g.CSR()
	sw, edge := -1, int32(-1)
	for i := c.Start[h]; i < c.Start[h+1]; i++ {
		if o := int(c.Nbr[i]); g.Vertices[o].Kind == Switch && (edge < 0 || c.Edge[i] < edge) {
			sw, edge = o, c.Edge[i]
		}
	}
	return sw
}

// ShortestPaths runs BFS over the switch subgraph from switch src and
// returns hop distances indexed by vertex ID (-1 for unreachable or
// host vertices).
func (g *Graph) ShortestPaths(src int) []int {
	dist := make([]int, len(g.Vertices))
	for i := range dist {
		dist[i] = -1
	}
	if g.Vertices[src].Kind != Switch {
		return dist
	}
	dist[src] = 0
	c := g.CSR()
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, o := range c.Nbr[c.Start[v]:c.Start[v+1]] {
			if g.Vertices[o].Kind != Switch || dist[o] >= 0 {
				continue
			}
			dist[o] = dist[v] + 1
			queue = append(queue, int(o))
		}
	}
	return dist
}

// Diameter returns the maximum switch-to-switch hop distance, or 0 for
// graphs with fewer than two switches.
func (g *Graph) Diameter() int {
	d := 0
	for _, s := range g.Switches() {
		for _, x := range g.ShortestPaths(s) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// Stats is a compact structural summary used in reports and tests.
type Stats struct {
	Switches, Hosts, Links int
	Radix, Diameter        int
	SwitchPortsUsed        int
}

// Summary computes a Stats for the graph.
func (g *Graph) Summary() Stats {
	return Stats{
		Switches:        g.NumSwitches(),
		Hosts:           g.NumHosts(),
		Links:           len(g.Edges),
		Radix:           g.Radix(),
		Diameter:        g.Diameter(),
		SwitchPortsUsed: g.SwitchPortCount(),
	}
}

// String implements fmt.Stringer with a one-line summary. It reads
// the counts directly: Summary's diameter is a BFS from every switch.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{switches:%d hosts:%d links:%d radix:%d}", g.Name, g.NumSwitches(), g.NumHosts(), len(g.Edges), g.Radix())
}
