package topology

import (
	"fmt"
	"testing"
)

// validateReference is Validate as it was before the port check moved
// onto the CSR: one map of every (vertex, port) pair in use. It is the
// oracle FuzzValidate holds Validate to, message for message.
func validateReference(g *Graph) error {
	labels := make(map[string]int, len(g.Vertices))
	for _, v := range g.Vertices {
		if prev, dup := labels[v.Label]; dup {
			return fmt.Errorf("topology %q: duplicate label %q on vertices %d and %d", g.Name, v.Label, prev, v.ID)
		}
		labels[v.Label] = v.ID
	}
	ports := make(map[[2]int]int)
	for _, e := range g.Edges {
		if e.A < 0 || e.A >= len(g.Vertices) || e.B < 0 || e.B >= len(g.Vertices) {
			return fmt.Errorf("topology %q: edge %d endpoint out of range", g.Name, e.ID)
		}
		if e.APort < 1 || e.BPort < 1 {
			return fmt.Errorf("topology %q: edge %d has non-positive port", g.Name, e.ID)
		}
		for _, pp := range [][2]int{{e.A, e.APort}, {e.B, e.BPort}} {
			if e.A == e.B && pp[1] == e.APort && pp[0] == e.B && e.APort == e.BPort {
				return fmt.Errorf("topology %q: edge %d is a same-port self loop", g.Name, e.ID)
			}
			if prev, dup := ports[pp]; dup && prev != e.ID {
				return fmt.Errorf("topology %q: port %d on vertex %d used by edges %d and %d",
					g.Name, pp[1], pp[0], prev, e.ID)
			}
			ports[pp] = e.ID
		}
	}
	for _, h := range g.Hosts() {
		if g.Degree(h) > 1 {
			return fmt.Errorf("topology %q: host %d has %d links (max 1)", g.Name, h, g.Degree(h))
		}
	}
	return nil
}

// fuzzGraph decodes a small graph from data, one byte per choice (0
// once data runs out): up to 8 vertices, each a switch or a host, some
// sharing a label; up to 15 edges between random endpoints (self loops
// included) on ports -1..4, so ports repeat and some are not positive;
// and up to 3 endpoints moved out of range afterwards, as only a
// hand-edited Edges can hold them.
func fuzzGraph(data []byte) *Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := New("fuzz")
	nv := 1 + next()%8
	for v := 0; v < nv; v++ {
		c := next()
		label := ""
		if c&4 != 0 {
			label = fmt.Sprint("v", c>>3%4)
		}
		if c&1 == 0 {
			g.AddSwitch(label)
		} else {
			g.AddHost(label)
		}
	}
	for ne := next() % 16; ne > 0; ne-- {
		a, b := next()%nv, next()%nv
		g.ConnectPorts(a, next()%6-1, b, next()%6-1)
	}
	for k := next() % 4; k > 0 && len(g.Edges) > 0; k-- {
		e := &g.Edges[next()%len(g.Edges)]
		to := [...]int{-1, nv, nv + 5}[next()%3]
		if next()&1 == 0 {
			e.A = to
		} else {
			e.B = to
		}
	}
	return g
}

// FuzzValidate holds Validate to the map-based reference on random
// small graphs: the same verdict and, on a violation, the same message
// — which names the violation reported first. A second Validate, which
// reads the CSR the first one cached, must agree too.
func FuzzValidate(f *testing.F) {
	// Layout: vertices-1; per vertex bit 0 host, bit 2 labelled, bits
	// 3-4 the label; edges; per edge A, B, APort+1, BPort+1; moves; per
	// move the edge, the endpoint (-1, nv, nv+5) and the side.
	for _, seed := range [][]byte{
		{},
		{2, 0, 0, 1, 2, 0, 1, 2, 2, 1, 2, 3, 2, 0},          // a valid chain
		{2, 0, 0, 0, 2, 0, 1, 2, 2, 0, 2, 2, 2, 0},          // a port used twice
		{1, 0, 0, 2, 0, 1, 2, 2, 1, 1, 3, 3, 0},             // a same-port self loop
		{1, 0, 0, 2, 1, 1, 2, 3, 0, 1, 2, 3, 0},             // a clash with a self loop's second port
		{1, 0, 0, 2, 1, 1, 2, 3, 1, 0, 2, 2, 0},             // a clash with a self loop's first port
		{0, 0, 2, 0, 0, 2, 3, 0, 0, 3, 2, 0},                // two self loops clashing at both ends: the A end is reported
		{1, 0, 0, 1, 0, 1, 0, 2, 0},                         // a non-positive port
		{2, 0, 0, 0, 2, 0, 1, 2, 2, 1, 2, 3, 2, 1, 1, 1, 0}, // an endpoint out of range
		{1, 4, 4, 0}, // a duplicate label
		{2, 0, 0, 1, 2, 0, 2, 2, 2, 1, 2, 2, 3, 0},                                     // a multi-homed host
		{3, 0, 0, 0, 0, 4, 0, 1, 2, 2, 2, 3, 2, 2, 1, 2, 2, 3, 0, 2, 2, 4, 1, 3, 2, 1}, // a clash, then a range error
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		want := validateReference(g)
		for pass := 1; pass <= 2; pass++ {
			got := g.Validate()
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("pass %d: Validate() = %v, reference %v\nvertices %+v\nedges %+v",
					pass, got, want, g.Vertices, g.Edges)
			}
		}
	})
}

// BenchmarkValidate is Validate on the flow-xl fabric, FatTree(48)
// (30 528 vertices), with its CSR already built, so what it times is
// the label, port and host checks.
func BenchmarkValidate(b *testing.B) {
	g := FatTree(48)
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
