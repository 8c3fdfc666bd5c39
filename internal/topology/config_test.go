package topology

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// badConfigs are configuration files that Build must refuse, with the
// message it gives. The rows down to fullmesh(2147483647,0) used to panic
// in a generator, in makeslice or in growslice, or to ask for unbounded
// work or memory; the five after them built a graph with no error (an
// empty one for ring(0,1) and mesh3d(0,2,2,1)); the rest are the other
// faults Build names, Validate's among them.
var badConfigs = []struct {
	json, want string
}{
	{`{"generator":"fattree","params":[3]}`, `topology config: fattree(3): k must be even and >= 2`},
	{`{"generator":"fattree","params":[0]}`, `topology config: fattree(0): k must be even and >= 2`},
	{`{"generator":"fattree","params":[-2]}`, `topology config: fattree(-2): k must be even and >= 2`},
	{`{"generator":"fattree","params":[100000]}`, `topology config: fattree(100000): more than 300000 vertices and edges`},
	{`{"generator":"dragonfly","params":[0,9,2,1]}`, `topology config: dragonfly(0,9,2,1): need a >= 1, g >= 2, h >= 1 and p >= 0`},
	{`{"generator":"dragonfly","params":[4,9,2,-1]}`, `topology config: dragonfly(4,9,2,-1): need a >= 1, g >= 2, h >= 1 and p >= 0`},
	{`{"generator":"dragonfly","params":[4,10,2,1]}`, `topology config: dragonfly(4,10,2,1): g exceeds a*h+1 = 9`},
	{`{"generator":"bcube","params":[0,0]}`, `topology config: bcube(0,0): need n >= 2 and k >= 0`},
	{`{"generator":"bcube","params":[2,2147483647]}`, `topology config: bcube(2,2147483647): more than 300000 vertices and edges`},
	{`{"generator":"hyperbcube","params":[0,0]}`, `topology config: hyperbcube(0,0): need n >= 2 and l >= 1`},
	{`{"generator":"ring","params":[-1,1]}`, `topology config: ring(-1,1): need n >= 1 and hosts >= 0`},
	{`{"generator":"torus2d","params":[-3,2,1]}`, `topology config: torus2d(-3,2,1): need w >= 1, h >= 1 and hosts >= 0`},
	{`{"generator":"torus3d","params":[4096,4096,4096,0]}`, `topology config: torus3d(4096,4096,4096,0): more than 300000 vertices and edges`},
	{`{"generator":"fullmesh","params":[-1,1]}`, `topology config: fullmesh(-1,1): need n >= 1 and hosts >= 0`},
	{`{"generator":"fullmesh","params":[2147483647,0]}`, `topology config: fullmesh(2147483647,0): more than 300000 vertices and edges`},
	{`{"generator":"ring","params":[0,1]}`, `topology config: ring(0,1): need n >= 1 and hosts >= 0`},
	{`{"generator":"mesh3d","params":[0,2,2,1]}`, `topology config: mesh3d(0,2,2,1): need x >= 1, y >= 1, z >= 1 and hosts >= 0`},
	{`{"name":"s","generator":"star","params":[-1,1]}`, `topology config "s": star(-1,1): need n >= 1 and hosts >= 0`},
	{`{"generator":"line","params":[3,-1]}`, `topology config: line(3,-1): need n >= 1 and hosts >= 0`},
	{`{"generator":"mesh2d","params":[2,2,-5]}`, `topology config: mesh2d(2,2,-5): need w >= 1, h >= 1 and hosts >= 0`},
	{`{"name":"x","generator":"nope"}`, `topology config "x": unknown generator "nope"`},
	{`{"generator":"fattree","params":[1,2]}`, `topology config: generator "fattree" needs 1 params (k), got 2`},
	{`{"name":"x","switches":["a","a"]}`, `topology config "x": duplicate vertex "a"`},
	{`{"name":"x","switches":["a"],"hosts":["a"]}`, `topology config "x": duplicate vertex "a"`},
	{`{"name":"x","switches":["a"],"links":[{"a":"a","b":"zz"}]}`, `topology config "x": link 0 references unknown vertex "zz"`},
	{`{"name":"x","switches":["a"],"hosts":["h","g"],"links":[{"a":"a","b":"h"},{"a":"g","b":"h"}]}`, `topology "x": host 1 has 2 links (max 1)`},
	{`{"name":"x","switches":["a"],"links":[{"a":"a","b":"a"}]}`, `topology config "x": link 0 joins "a" to itself`},
	{`{"name":"x","switches":["a","b"],"links":[{"a":"a","b":"b","aport":-1,"bport":-1}]}`, `topology config "x": link 0 pins ports -1 and -1; ports must be positive`},
	{`{"name":"x","switches":["a","b"],"links":[{"a":"a","b":"b","aport":1}]}`, `topology config "x": link 0 must pin both ports or neither`},
}

// TestGeneratorPanicsWithCheckError calls the generator functions
// directly on every refused generator config: each panics with its
// row's check error, before allocating anything for the graph.
func TestGeneratorPanicsWithCheckError(t *testing.T) {
	for _, c := range badConfigs {
		cfg, err := ReadConfig(strings.NewReader(c.json))
		if err != nil {
			t.Fatal(err)
		}
		gen := generatorNamed(cfg.Generator)
		if gen == nil || len(cfg.Params) != len(gen.Params) {
			continue
		}
		want := "topology: " + gen.Check(cfg.Params).Error()
		func() {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || err.Error() != want {
					t.Errorf("%s: panic %v, want %s", c.json, r, want)
				}
			}()
			gen.build(cfg.Params)
		}()
	}
}

// TestSizeBoundAdmitsTreeFabrics keeps the largest fabrics the tree
// builds inside the size bound: FatTree(64) (the benchmarks' XL
// fabric) and the 33 000-leaf star of the netsim tests.
func TestSizeBoundAdmitsTreeFabrics(t *testing.T) {
	for _, err := range []error{checkFatTree(64), checkFatTree(66), checkStar(33000, 1)} {
		if err != nil {
			t.Error(err)
		}
	}
	if err := checkFatTree(68); err == nil {
		t.Error("FatTree(68) admitted: its 320 212 vertices and edges exceed the bound")
	}
}

// TestGeneratorChecksAllocateNothing: a check that passes builds no
// error, so the generator functions' success path allocates nothing
// new.
func TestGeneratorChecksAllocateNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		for i := range Generators {
			if Generators[i].Check(Generators[i].Example) != nil {
				panic("example refused")
			}
		}
		if checkFatTree(64) != nil {
			panic("FatTree(64) refused")
		}
	})
	if allocs != 0 {
		t.Errorf("passing checks allocate %.1f times", allocs)
	}
}

// sameGraph describes the first difference between two graphs, or
// returns "". Vertices are matched by label, as a configuration file
// names them (ToConfig lists switches before hosts, so IDs may move);
// edges are compared in order, endpoints by label.
func sameGraph(a, b *Graph) string {
	if a.Name != b.Name || a.Family != b.Family {
		return fmt.Sprintf("name/family %q/%q vs %q/%q", a.Name, a.Family, b.Name, b.Family)
	}
	if len(a.Vertices) != len(b.Vertices) || len(a.Edges) != len(b.Edges) {
		return fmt.Sprintf("%d vertices, %d edges vs %d, %d", len(a.Vertices), len(a.Edges), len(b.Vertices), len(b.Edges))
	}
	byLabel := make(map[string]Vertex, len(b.Vertices))
	for _, v := range b.Vertices {
		byLabel[v.Label] = v
	}
	for _, v := range a.Vertices {
		w, ok := byLabel[v.Label]
		if !ok || w.Kind != v.Kind || !slices.Equal(w.Coord, v.Coord) {
			return fmt.Sprintf("vertex %+v vs %+v", v, w)
		}
	}
	for i, e := range a.Edges {
		f := b.Edges[i]
		if a.Vertices[e.A].Label != b.Vertices[f.A].Label || a.Vertices[e.B].Label != b.Vertices[f.B].Label ||
			e.APort != f.APort || e.BPort != f.BPort {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, e, f)
		}
	}
	return ""
}

// TestConfigFamilyField: a renamed generated graph keeps its family
// through a file, and a family that is not a generator row, or that
// contradicts the config's generator, is refused.
func TestConfigFamilyField(t *testing.T) {
	g, err := (&Config{Name: "lab", Generator: "dragonfly", Params: []int{4, 9, 2, 1}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	c := g.ToConfig()
	if c.Family != "dragonfly" {
		t.Fatalf("ToConfig family %q, want dragonfly", c.Family)
	}
	back, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if back.Family != "dragonfly" {
		t.Fatalf("round trip: family %q, want dragonfly", back.Family)
	}
	if c := FatTree(4).ToConfig(); c.Family != "" {
		t.Errorf("fattree-k4 writes family %q; its name declares it", c.Family)
	}
	for _, c := range []struct{ json, want string }{
		{`{"name":"x","family":"nope","switches":["a"]}`, `topology config "x": unknown family "nope"`},
		{`{"generator":"fattree","params":[4],"family":"dragonfly"}`, `topology config: family "dragonfly" contradicts generator "fattree"`},
	} {
		cfg, err := ReadConfig(strings.NewReader(c.json))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.Build(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.json, err, c.want)
		}
	}
}

// FuzzConfig feeds arbitrary bytes through ReadConfig and Build, which
// must not panic. A graph that builds is within the size bound, and
// its ToConfig builds back to an equal graph, family included: the
// name declares it, or the file's "family" field carries it.
func FuzzConfig(f *testing.F) {
	for _, c := range badConfigs {
		f.Add([]byte(c.json))
	}
	for _, gen := range Generators {
		f.Add([]byte(fmt.Sprintf(`{"generator":%q,"params":%s}`, gen.Name, strings.Join(strings.Fields(fmt.Sprint(gen.Example)), ","))))
	}
	f.Add([]byte(`{"name":"lab","generator":"dragonfly","params":[4,9,2,1]}`))
	f.Add([]byte(`{"name":"fattree-lab","generator":"ring","params":[3,1]}`))
	f.Add([]byte(`{"name":"lab","family":"torus2d","switches":["a","b"],"links":[{"a":"a","b":"b"}]}`))
	f.Add([]byte(`{"name":"torus2d-x","switches":["a","b","c"],"hosts":["h"],"links":[{"a":"a","b":"b"},{"a":"b","b":"c","aport":4,"bport":2},{"a":"h","b":"c"}],"coords":{"a":[0,0],"b":[1,0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		g, err := c.Build()
		if err != nil {
			return
		}
		if n := len(g.Vertices) + len(g.Edges); n > maxGeneratedSize {
			t.Fatalf("built %d vertices and edges, over the bound", n)
		}
		back, err := g.ToConfig().Build()
		if err != nil {
			t.Fatalf("ToConfig of a built graph does not build: %v", err)
		}
		if d := sameGraph(g, back); d != "" {
			t.Fatalf("round trip differs: %s", d)
		}
	})
}
