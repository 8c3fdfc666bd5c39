package topology

import (
	"sort"
	"testing"
)

// TestCSRMatchesAdjacency cross-checks the CSR view against the
// reference accessors on every generated family the strategies route.
func TestCSRMatchesAdjacency(t *testing.T) {
	graphs := []*Graph{
		FatTree(4),
		Dragonfly(4, 9, 2, 1),
		Torus3D(3, 3, 3, 1),
		Mesh2D(4, 4, 2),
		RandomWAN("csr-wan", 12, 4, 42),
	}
	for _, g := range graphs {
		c := g.CSR()
		if got, want := len(c.Start), len(g.Vertices)+1; got != want {
			t.Fatalf("%s: len(Start) = %d, want %d", g.Name, got, want)
		}
		for v := range g.Vertices {
			lo, hi := c.Row(v)
			if int(hi-lo) != g.Degree(v) {
				t.Errorf("%s: row %d has %d half-edges, Degree = %d", g.Name, v, hi-lo, g.Degree(v))
			}
			// Row must be the sorted neighbour multiset with matching ports.
			var want []int
			for _, eid := range g.IncidentEdges(v) {
				want = append(want, g.Edges[eid].Other(v))
			}
			sort.Ints(want)
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
			// PortTo must agree with the EdgeBetween-based reference.
			for o := range g.Vertices {
				want := 0
				if eid := g.EdgeBetween(v, o); eid >= 0 {
					want = g.Edges[eid].PortAt(v)
				}
				if got := c.PortTo(v, o); got != want {
					t.Errorf("%s: PortTo(%d,%d) = %d, want %d", g.Name, v, o, got, want)
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
