package topology

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// adjacencyOf is the reference adjacency of g, built from Edges alone:
// vertex v's incident edge IDs in ascending order, a self loop once.
func adjacencyOf(g *Graph) [][]int {
	adj := make([][]int, len(g.Vertices))
	for _, e := range g.Edges {
		adj[e.A] = append(adj[e.A], e.ID)
		if e.B != e.A {
			adj[e.B] = append(adj[e.B], e.ID)
		}
	}
	return adj
}

// rowByEdgeID returns vertex v's CSR row re-sorted by edge ID: its
// incident edge IDs in ascending order.
func rowByEdgeID(g *Graph, v int) []int {
	c := g.CSR()
	lo, hi := c.Row(v)
	ids := make([]int, 0, hi-lo)
	for _, e := range c.Edge[lo:hi] {
		ids = append(ids, int(e))
	}
	slices.Sort(ids)
	return ids
}

// TestCSRMatchesAdjacency cross-checks the CSR view against the
// adjacency Edges defines, on every generated family the strategies
// route and on a hand-built graph with a self loop and parallel edges.
func TestCSRMatchesAdjacency(t *testing.T) {
	graphs := []*Graph{
		FatTree(4),
		Dragonfly(4, 9, 2, 1),
		Torus3D(3, 3, 3, 1),
		Mesh2D(4, 4, 2),
		RandomWAN("csr-wan", 12, 4, 42),
		handBuilt(),
	}
	for _, g := range graphs {
		c := g.CSR()
		if got, want := len(c.Start), len(g.Vertices)+1; got != want {
			t.Fatalf("%s: len(Start) = %d, want %d", g.Name, got, want)
		}
		adj := adjacencyOf(g)
		for v := range g.Vertices {
			lo, hi := c.Row(v)
			if int(hi-lo) != len(adj[v]) || g.Degree(v) != len(adj[v]) {
				t.Errorf("%s: row %d has %d half-edges, Degree = %d, want %d", g.Name, v, hi-lo, g.Degree(v), len(adj[v]))
				continue
			}
			// Row must be the sorted neighbour multiset with matching ports.
			var want []int
			for _, eid := range adj[v] {
				want = append(want, g.Edges[eid].Other(v))
			}
			slices.Sort(want)
			for i := lo; i < hi; i++ {
				if int(c.Nbr[i]) != want[i-lo] {
					t.Fatalf("%s: row %d nbr[%d] = %d, want %d", g.Name, v, i-lo, c.Nbr[i], want[i-lo])
				}
				if i > lo && c.Nbr[i] == c.Nbr[i-1] && c.Edge[i] < c.Edge[i-1] {
					t.Errorf("%s: row %d parallel edges out of order", g.Name, v)
				}
				e := g.Edges[c.Edge[i]]
				if e.Other(v) != int(c.Nbr[i]) || e.PortAt(v) != int(c.Port[i]) {
					t.Errorf("%s: row %d half-edge %d inconsistent with edge %d", g.Name, v, i-lo, e.ID)
				}
			}
			// PortTo and EdgeBetween must name the lowest edge ID joining
			// the pair.
			for o := range g.Vertices {
				wantEdge, wantPort := -1, 0
				for _, eid := range adj[v] {
					if g.Edges[eid].Other(v) == o {
						wantEdge, wantPort = eid, g.Edges[eid].PortAt(v)
						break
					}
				}
				if got := c.PortTo(v, o); got != wantPort {
					t.Errorf("%s: PortTo(%d,%d) = %d, want %d", g.Name, v, o, got, wantPort)
				}
				if got := g.EdgeBetween(v, o); got != wantEdge {
					t.Errorf("%s: EdgeBetween(%d,%d) = %d, want %d", g.Name, v, o, got, wantEdge)
				}
			}
		}
	}
}

// TestCSRInvalidation: mutating the graph must drop the memoized view.
func TestCSRInvalidation(t *testing.T) {
	g := Line(3, 1)
	c1 := g.CSR()
	if g.CSR() != c1 {
		t.Fatal("CSR not memoized")
	}
	a := g.AddSwitch("x")
	g.Connect(g.Switches()[0], a)
	c2 := g.CSR()
	if c2 == c1 {
		t.Fatal("CSR not invalidated by mutation")
	}
	if int(c2.Start[len(g.Vertices)]) != 2*len(g.Edges) {
		t.Fatalf("rebuilt CSR half-edge count = %d, want %d", c2.Start[len(g.Vertices)], 2*len(g.Edges))
	}
}

// TestCSRAllocsBounded holds a graph's first CSR build to three
// allocations whatever the graph: the CSR itself, its row offsets and
// one buffer for Nbr, Port and Edge. Sorting the rows whose neighbours
// do not ascend in edge-ID order allocates nothing, so a zoo graph,
// whose random wiring leaves rows to sort, and a graph with a self
// loop, parallel edges and a multi-homed host take as many allocations
// as a fat-tree. The collector is off while counting, so that its own
// allocations do not blur the counts.
func TestCSRAllocsBounded(t *testing.T) {
	const want = 3
	multi := New("multi")
	a := multi.AddSwitch("")
	b := multi.AddSwitch("")
	h := multi.AddHost("")
	multi.Connect(b, a)
	multi.Connect(a, b)
	multi.Connect(a, a)
	multi.Connect(h, b)
	multi.Connect(h, a)
	wan := RandomWAN("alloc-wan", 40, 10, 7)
	sorts := func(g *Graph) bool {
		for v, row := range adjacencyOf(g) {
			for i := 1; i < len(row); i++ {
				if g.Edges[row[i-1]].Other(v) > g.Edges[row[i]].Other(v) {
					return true
				}
			}
		}
		return false
	}
	if !sorts(wan) || !sorts(multi) {
		t.Fatal("the zoo and hand-built graphs must have rows that need sorting")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, g := range []*Graph{FatTree(8), Dragonfly(4, 9, 2, 1), wan, multi} {
		runtime.GC()
		got := testing.AllocsPerRun(5, func() {
			g.csr.Store(nil)
			g.CSR()
		})
		if got != want {
			t.Errorf("%s: a first CSR build allocates %.0f objects, want %d", g.Name, got, want)
		}
	}
	// The multi-homed host's switch is the one behind its lowest edge
	// ID, though the other sorts first in its row.
	if got := multi.HostSwitch(h); got != b {
		t.Errorf("HostSwitch(%d) = %d, want %d", h, got, b)
	}
}
