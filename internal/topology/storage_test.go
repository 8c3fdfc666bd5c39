package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
)

// graphDigest writes everything a graph exposes of its storage — Name,
// Family, every vertex's ID, Kind, Label and Coord, every edge, and the
// incident edges of every vertex in edge-ID order — into h.
func graphDigest(h io.Writer, g *Graph) {
	fmt.Fprintf(h, "%q %q %d %d\n", g.Name, g.Family, len(g.Vertices), len(g.Edges))
	for _, v := range g.Vertices {
		fmt.Fprintf(h, "v %d %d %q %v\n", v.ID, v.Kind, v.Label, v.Coord)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(h, "e %d %d %d %d %d\n", e.ID, e.A, e.APort, e.B, e.BPort)
	}
	for v := range g.Vertices {
		fmt.Fprintf(h, "i %d %v\n", v, rowByEdgeID(g, v))
	}
}

// digestOf is the hex SHA-256 of graphDigest over graphs in order.
func digestOf(graphs ...*Graph) string {
	h := sha256.New()
	for _, g := range graphs {
		graphDigest(h, g)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundTripped writes g as an explicit configuration, reads it back and
// builds it.
func roundTripped(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.ToConfig().WriteConfig(&buf); err != nil {
		t.Fatal(err)
	}
	return built(t, buf.String())
}

// built reads and builds one configuration file.
func built(t *testing.T, json string) *Graph {
	t.Helper()
	c, err := ReadConfig(strings.NewReader(json))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGeneratorsUnchanged pins what every generator builds, byte for
// byte: labels, coordinates, edges and each vertex's incident edges
// (its CSR row sorted by edge ID) hash to the constants below, which
// were computed from the per-vertex storage the flat arrays replaced.
func TestGeneratorsUnchanged(t *testing.T) {
	cases := map[string]func() []*Graph{
		"fattree-48":         func() []*Graph { return []*Graph{FatTree(48)} },
		"torus3d-4x4x4":      func() []*Graph { return []*Graph{Torus3D(4, 4, 4, 1)} },
		"dragonfly-a4-g9-h2": func() []*Graph { return []*Graph{Dragonfly(4, 9, 2, 1)} },
		"zoo-0":              func() []*Graph { return Zoo(0) },
		"config-round-trip":  func() []*Graph { return []*Graph{roundTripped(t, Dragonfly(4, 9, 2, 1)), roundTripped(t, Star(3, 2))} },
		"config-generator":   func() []*Graph { return []*Graph{built(t, `{"name":"g","generator":"hyperbcube","params":[3,2]}`)} },
		"config-explicit-fam": func() []*Graph {
			return []*Graph{built(t, `{"name":"x","family":"ring","switches":["a","b"],"hosts":["h"],"coords":{"a":[7,8]},"links":[{"a":"a","b":"b"},{"a":"h","b":"b","aport":3,"bport":5}]}`)}
		},
		"hand-built": func() []*Graph { return []*Graph{handBuilt()} },
	}
	for _, gen := range Generators {
		cases["example-"+gen.Name] = func() []*Graph { return []*Graph{gen.build(gen.Example)} }
	}
	for name, build := range cases {
		got := digestOf(build()...)
		if want, ok := generatorDigests[name]; !ok || got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

// handBuilt is a graph made through the exported mutators: default
// labels, a self loop, parallel edges and explicit ports.
func handBuilt() *Graph {
	g := New("hand")
	c := []int{1, 2}
	a := g.AddSwitch("", c...)
	b := g.AddSwitch("", 9, 2)
	h := g.AddHost("")
	s := g.AddSwitch("named", 5)
	g.Connect(a, b)
	g.Connect(b, a)
	g.Connect(a, a)
	g.ConnectPorts(s, 7, b, 2)
	g.Connect(h, s)
	g.AddHost("", 3, 4, 5)
	return g
}

// generatorDigests were computed from the per-vertex storage (a
// Sprintf label, the caller's coordinate slice and an append-grown
// incidence row per vertex) before the flat arrays replaced it.
var generatorDigests = map[string]string{
	"config-explicit-fam": "6768f574f89306f7aeb73b22bcf79097ef83b31d240a8a6de671f7b5340143e1",
	"config-generator":    "629fba7e00138126a6c316d08719275ea57eea07bd5fadec8c9aef62d0025f03",
	"config-round-trip":   "14e46ccbcfc4937d6167e70a770e2ec4d918f4a6c9f9efa22d8f2dca28280a22",
	"dragonfly-a4-g9-h2":  "cb9e481182fd866120126c9a4b54447e52927e55d14036d5856af3f40bb025fb",
	"example-bcube":       "0f5d371940711e132175220d6a652182f82e0f87a74583d4ee71e73cbdb93d74",
	"example-dragonfly":   "cb9e481182fd866120126c9a4b54447e52927e55d14036d5856af3f40bb025fb",
	"example-fattree":     "af85e42d35c1ba20b95ed9a65c4f1ca6ad0e3542a72004c3fb89fb0f35af723c",
	"example-fullmesh":    "ed92171c86eabaf81021b56d1f441477502f5edbcef5860fdb787b0206dff2fb",
	"example-hyperbcube":  "2923f7c3e940dfa9fd182c4c42a3bbc1004c11e507f950b3a14b5c3fdf7bc5aa",
	"example-line":        "88880f40aa2b987ba9191bbf76d0f61f161eae897bab36277e7c434222d7168b",
	"example-mesh2d":      "6ed1da1edb6384c7ee84431e263ea2e6d47d7df8178b3deb10abaf7562a6c1da",
	"example-mesh3d":      "17f423a114b5095647100528e672504e4e2914c491920fe940ee44bd3d949c4b",
	"example-ring":        "c646cbd1e6e46599b6b7baa5b4c53c57e74f7dcab8092737d0b1cd7b7f74c99a",
	"example-star":        "e5ee5582dbca606b748d099128966f78e100df2448cd20fff9dd694a916032e2",
	"example-torus2d":     "51bb71e49862daa07535ce97d72ea8002d0c28bbc8bcabcfd5fe41f82413b2a7",
	"example-torus3d":     "f7b962c5b95ddb0e97e62d93a033bc5ca7e59094ca376f92faaadc13773bf5db",
	"fattree-48":          "7eb0475db9f63edaba6c7a79f6ed76c45eeb6a1d3e3eecd855c1614fa05e1a2a",
	"hand-built":          "97960b7834299470fda877562315295d5316cbd840a45bd73a82b15509974da7",
	"torus3d-4x4x4":       "8b7264614698426b0ebf6c57164bfa44d885647696ebc88282e8b37f1963f295",
	"zoo-0":               "be5e90b0d673455fa95dad7e7e587ab8b623f7efebec94cb9144535fd8e0c6f7",
}

// TestGeneratorAllocsBounded holds every generated fabric to a
// constant number of allocations: labels, coordinates, vertices and
// edges each live in one array its generator reserves up front, so
// FatTree(48), with 30 528 vertices, allocates no more objects than
// FatTree(16). Each generator is built at two sizes whose labels have
// different digit counts, and both must allocate the same number of
// objects: a reserve formula that undercounts one size's labels or
// coordinates shows as a regrowth there. The collector is off while
// counting, so that its own allocations do not blur the counts; under
// -race only the budget is checked, as the detector's runtime
// allocates too.
func TestGeneratorAllocsBounded(t *testing.T) {
	const budget = 32
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	check := func(name string, small, large func()) {
		t.Helper()
		runtime.GC()
		a := testing.AllocsPerRun(3, small)
		runtime.GC()
		b := testing.AllocsPerRun(3, large)
		if a > budget || b > budget || (a != b && !raceEnabled) {
			t.Errorf("%s allocates %.0f objects at the smaller size and %.0f at the larger, want the same at most %d", name, a, b, budget)
		}
	}
	check("FatTree(16) and FatTree(48)", func() { FatTree(16) }, func() { FatTree(48) })
	larger := map[string][]int{
		"fattree": {24}, "dragonfly": {8, 33, 4, 2}, "mesh2d": {40, 30, 3}, "mesh3d": {12, 10, 9, 2},
		"torus2d": {40, 30, 3}, "torus3d": {12, 10, 9, 2}, "bcube": {5, 3}, "hyperbcube": {12, 10},
		"line": {150, 12}, "ring": {150, 12}, "star": {150, 12}, "fullmesh": {120, 11},
	}
	for _, gen := range Generators {
		p, ok := larger[gen.Name]
		if !ok {
			t.Errorf("generator %q has no larger size to be checked at", gen.Name)
			continue
		}
		if err := gen.Check(p); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s %v and %v", gen.Name, gen.Example, p), func() { gen.build(gen.Example) }, func() { gen.build(p) })
	}
	check("RandomWAN(8) and RandomWAN(400)", func() { RandomWAN("w", 8, 4, 1) }, func() { RandomWAN("w", 400, 200, 1) })
}

// TestConcurrentFirstAdjacency has goroutines make the first adjacency
// reads of one shared graph at once: under -race the lazy CSR build
// must be race-free, and every reader must see the adjacency Edges
// defines.
func TestConcurrentFirstAdjacency(t *testing.T) {
	g := FatTree(8)
	ref := FatTree(8)
	want := adjacencyOf(ref)
	const readers = 8
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each reader starts on another accessor and another vertex.
			for i := range g.Vertices {
				v := (i + r*len(g.Vertices)/readers) % len(g.Vertices)
				var ok bool
				switch (i + r) % 4 {
				case 0:
					ok = slices.Equal(rowByEdgeID(g, v), want[v])
				case 1:
					ok = g.Degree(v) == len(want[v]) && g.HostSwitch(v) == ref.HostSwitch(v)
				case 2:
					lo, hi := g.CSR().Row(v)
					ok = int(hi-lo) == len(want[v])
				default:
					e := g.Edges[want[v][0]]
					ok = g.EdgeBetween(v, e.Other(v)) == ref.EdgeBetween(v, e.Other(v))
				}
				if !ok {
					errs <- fmt.Sprintf("reader %d: vertex %d reads differently from a serial build", r, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
