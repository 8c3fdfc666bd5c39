package topology

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// switchesConnected reports whether the switch-only subgraph is
// connected: every switch is reachable from the first.
func switchesConnected(g *Graph) bool {
	sw := g.Switches()
	if len(sw) == 0 {
		return true
	}
	dist := g.ShortestPaths(sw[0])
	for _, s := range sw {
		if dist[s] < 0 {
			return false
		}
	}
	return true
}

func TestFatTreeCounts(t *testing.T) {
	// The paper: a k=4 fat-tree has 20 switches and 16 hosts (Fig. 1, §VII-C).
	cases := []struct {
		k, switches, hosts int
	}{
		{2, 5, 2},
		{4, 20, 16},
		{6, 45, 54},
		{8, 80, 128},
	}
	for _, c := range cases {
		g := FatTree(c.k)
		if got := g.NumSwitches(); got != c.switches {
			t.Errorf("FatTree(%d): switches = %d, want %d", c.k, got, c.switches)
		}
		if got := g.NumHosts(); got != c.hosts {
			t.Errorf("FatTree(%d): hosts = %d, want %d", c.k, got, c.hosts)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("FatTree(%d): %v", c.k, err)
		}
		if g.Radix() != c.k {
			t.Errorf("FatTree(%d): radix = %d, want %d", c.k, g.Radix(), c.k)
		}
	}
}

func TestFatTreeK4Links(t *testing.T) {
	// Standard k=4 fat-tree: 32 switch-switch links + 16 host links = 48
	// cables ("48 cables to deploy a standard Fat-Tree topology", §I).
	g := FatTree(4)
	if got := len(g.Edges); got != 48 {
		t.Errorf("FatTree(4): links = %d, want 48", got)
	}
	if got := len(g.SwitchSwitchEdges()); got != 32 {
		t.Errorf("FatTree(4): switch-switch links = %d, want 32", got)
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FatTree(3) did not panic")
		}
	}()
	FatTree(3)
}

func TestDragonflyStructure(t *testing.T) {
	// Paper's evaluation config: a=4, g=9, h=2.
	g := Dragonfly(4, 9, 2, 1)
	if got := g.NumSwitches(); got != 36 {
		t.Errorf("Dragonfly(4,9,2): switches = %d, want 36", got)
	}
	if got := g.NumHosts(); got != 36 {
		t.Errorf("Dragonfly(4,9,2,1): hosts = %d, want 36", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every pair of groups must be joined by exactly one global link.
	global := map[[2]int]int{}
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		ga, gb := g.Vertices[e.A].Coord[0], g.Vertices[e.B].Coord[0]
		if ga == gb {
			continue
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		global[[2]int{ga, gb}]++
	}
	if len(global) != 36 { // C(9,2)
		t.Errorf("Dragonfly group pairs connected = %d, want 36", len(global))
	}
	for pair, n := range global {
		if n != 1 {
			t.Errorf("groups %v joined by %d links, want 1", pair, n)
		}
	}
	// Intra-group: complete graph over a=4 routers -> degree 3 local.
	// Router degree = (a-1) local + at most h global + p hosts.
	for _, s := range g.Switches() {
		if d := g.Degree(s); d > 3+2+1 {
			t.Errorf("router %d degree %d exceeds a-1+h+p", s, d)
		}
	}
}

func TestDragonflyGlobalSlotCapacity(t *testing.T) {
	// No router may carry more than h global links.
	for _, tc := range [][4]int{{4, 9, 2, 1}, {2, 5, 2, 1}, {3, 7, 2, 2}, {4, 4, 1, 1}} {
		g := Dragonfly(tc[0], tc[1], tc[2], tc[3])
		globalPerRouter := map[int]int{}
		for _, eid := range g.SwitchSwitchEdges() {
			e := g.Edges[eid]
			if g.Vertices[e.A].Coord[0] != g.Vertices[e.B].Coord[0] {
				globalPerRouter[e.A]++
				globalPerRouter[e.B]++
			}
		}
		for r, n := range globalPerRouter {
			if n > tc[2] {
				t.Errorf("Dragonfly%v: router %d has %d global links > h=%d", tc, r, n, tc[2])
			}
		}
	}
}

func TestMeshTorusDegrees(t *testing.T) {
	m := Mesh2D(4, 4, 0)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.SwitchSwitchEdges()); got != 24 {
		t.Errorf("Mesh2D(4,4) links = %d, want 24", got)
	}
	tor := Torus2D(4, 4, 0)
	if got := len(tor.SwitchSwitchEdges()); got != 32 {
		t.Errorf("Torus2D(4,4) links = %d, want 32", got)
	}
	for _, s := range tor.Switches() {
		if d := tor.Degree(s); d != 4 {
			t.Errorf("Torus2D(4,4) switch %d degree = %d, want 4", s, d)
		}
	}
	t3 := Torus3D(4, 4, 4, 0)
	if got := t3.NumSwitches(); got != 64 {
		t.Errorf("Torus3D(4,4,4) switches = %d, want 64", got)
	}
	for _, s := range t3.Switches() {
		if d := t3.Degree(s); d != 6 {
			t.Errorf("Torus3D switch %d degree = %d, want 6", s, d)
		}
	}
	// 5x5 2D-Torus (paper Table IV workload).
	t5 := Torus2D(5, 5, 1)
	if got := t5.NumSwitches(); got != 25 {
		t.Errorf("Torus2D(5,5) switches = %d, want 25", got)
	}
	if err := t5.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusSmallDimensionNoParallelEdges(t *testing.T) {
	// Wrap links on dimension of size 2 would duplicate mesh links.
	g := Torus2D(2, 3, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			t.Errorf("parallel edge between %d and %d", a, b)
		}
		seen[key] = true
	}
}

func TestBCube(t *testing.T) {
	g := BCube(4, 1)
	// BCube(4,1): 16 servers, 2 levels x 4 switches.
	if got := g.NumHosts(); got != 16 {
		t.Errorf("BCube(4,1) hosts = %d, want 16", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !switchesConnected(g) {
		t.Error("BCube switch subgraph not connected")
	}
}

func TestHyperBCube(t *testing.T) {
	g := HyperBCube(2, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumHosts(); got != 8 {
		t.Errorf("HyperBCube(2,2) hosts = %d, want 8", got)
	}
	if !switchesConnected(g) {
		t.Error("HyperBCube switch subgraph not connected")
	}
}

func TestLineRingStar(t *testing.T) {
	l := Line(8, 1)
	if got := l.Diameter(); got != 7 {
		t.Errorf("Line(8) diameter = %d, want 7", got)
	}
	r := Ring(6, 1)
	if got := r.Diameter(); got != 3 {
		t.Errorf("Ring(6) diameter = %d, want 3", got)
	}
	s := Star(5, 2)
	if got := s.Diameter(); got != 2 {
		t.Errorf("Star(5) diameter = %d, want 2", got)
	}
	f := FullMesh(5, 1)
	if got := f.Diameter(); got != 1 {
		t.Errorf("FullMesh(5) diameter = %d, want 1", got)
	}
}

func TestValidateCatchesPortConflicts(t *testing.T) {
	g := New("bad")
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	g.ConnectPorts(a, 1, b, 1)
	g.ConnectPorts(a, 1, c, 1) // port 1 on a reused
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted duplicate port use")
	}
}

func TestValidateCatchesDuplicateLabels(t *testing.T) {
	g := New("bad")
	g.AddSwitch("x")
	g.AddSwitch("x")
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted duplicate labels")
	}
}

func TestValidateCatchesMultiHomedHost(t *testing.T) {
	g := New("bad")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	h := g.AddHost("h")
	g.Connect(s1, h)
	g.Connect(s2, h)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted multi-homed host")
	}
}

func TestHostSwitch(t *testing.T) {
	g := Line(3, 2)
	for _, h := range g.Hosts() {
		s := g.HostSwitch(h)
		if s < 0 {
			t.Fatalf("host %d has no switch", h)
		}
		if g.EdgeBetween(s, h) < 0 {
			t.Errorf("host %d not attached to its HostSwitch %d", h, s)
		}
	}
}

// TestStringReadsCounts holds String to the four counts it prints: at
// most one allocation per boxed count plus the string, where a
// diameter behind it would be a BFS from every switch.
func TestStringReadsCounts(t *testing.T) {
	for _, g := range []*Graph{FatTree(8), FatTree(16)} {
		s := g.Summary()
		want := fmt.Sprintf("%s{switches:%d hosts:%d links:%d radix:%d}", g.Name, s.Switches, s.Hosts, s.Links, s.Radix)
		if got := g.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = g.String() }); allocs > 5 {
			t.Errorf("%s: String allocates %.0f objects, want at most 5", g.Name, allocs)
		}
	}
}

func TestShortestPathsAndDiameter(t *testing.T) {
	g := Torus2D(4, 4, 0)
	// Torus 4x4 diameter is 2+2 = 4.
	if got := g.Diameter(); got != 4 {
		t.Errorf("Torus2D(4,4) diameter = %d, want 4", got)
	}
	dist := g.ShortestPaths(g.Switches()[0])
	for _, s := range g.Switches() {
		if dist[s] < 0 || dist[s] > 4 {
			t.Errorf("distance to %d = %d out of range", s, dist[s])
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	orig := FatTree(4)
	var buf bytes.Buffer
	if err := orig.ToConfig().WriteConfig(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSwitches() != orig.NumSwitches() || g.NumHosts() != orig.NumHosts() || len(g.Edges) != len(orig.Edges) {
		t.Errorf("round trip changed shape: %v vs %v", g.Summary(), orig.Summary())
	}
	// Ports must survive exactly.
	for i, e := range g.Edges {
		oe := orig.Edges[i]
		if e.APort != oe.APort || e.BPort != oe.BPort {
			t.Fatalf("edge %d ports changed: %+v vs %+v", i, e, oe)
		}
	}
}

// TestConfigGenerators builds every row's example through a config:
// the graph validates and carries the row's name as its Family, its
// default name declares that family, and a config name replaces the
// name but not the family. The generator name is matched ignoring case.
func TestConfigGenerators(t *testing.T) {
	for _, gen := range Generators {
		for _, name := range []string{"", "lab"} {
			c := Config{Name: name, Generator: strings.ToUpper(gen.Name), Params: gen.Example}
			g, err := c.Build()
			if err != nil {
				t.Fatalf("%s%v: %v", gen.Name, gen.Example, err)
			}
			if g.Family != gen.Name {
				t.Errorf("%s (name %q): Family = %q", gen.Name, name, g.Family)
			}
			if name == "" && familyOf(g.Name) != gen.Name {
				t.Errorf("%s: default name %q declares family %q", gen.Name, g.Name, familyOf(g.Name))
			}
			if name != "" && g.Name != name {
				t.Errorf("%s: Name = %q, want %q", gen.Name, g.Name, name)
			}
		}
	}
}

// TestConfigErrors pins the message of every fault in badConfigs.
func TestConfigErrors(t *testing.T) {
	for _, c := range badConfigs {
		cfg, err := ReadConfig(strings.NewReader(c.json))
		if err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		g, err := cfg.Build()
		if err == nil {
			t.Errorf("%s: built %v", c.json, g)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.json, err, c.want)
		}
	}
}

func TestZooProperties(t *testing.T) {
	zoo := Zoo(42)
	if len(zoo) != ZooSize {
		t.Fatalf("zoo size = %d, want %d", len(zoo), ZooSize)
	}
	for _, g := range zoo {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !switchesConnected(g) {
			t.Errorf("%s: not connected", g.Name)
		}
		n := g.NumSwitches()
		if n < 4 || n > 196 {
			t.Errorf("%s: %d switches outside zoo range", g.Name, n)
		}
	}
	// Determinism.
	again := Zoo(42)
	for i := range zoo {
		if zoo[i].Summary() != again[i].Summary() {
			t.Fatalf("zoo not deterministic at %d", i)
		}
	}
}

// Property: for any random WAN graph, the sum of degrees equals twice the
// edge count, and every edge's ports are consistent under Other/PortAt.
func TestQuickDegreeSum(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw)%40
		extra := int(extraRaw) % 20
		g := RandomWAN("q", n, extra, seed)
		sum := 0
		for i := range g.Vertices {
			sum += g.Degree(i)
		}
		if sum != 2*len(g.Edges) {
			return false
		}
		for _, e := range g.Edges {
			if e.Other(e.A) != e.B || e.Other(e.B) != e.A {
				return false
			}
			if e.PortAt(e.A) != e.APort || (e.A != e.B && e.PortAt(e.B) != e.BPort) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: RandomWAN is always connected and validates.
func TestQuickRandomWANValid(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%60
		g := RandomWAN("q", n, n/3, seed)
		return g.Validate() == nil && switchesConnected(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: config round-trip preserves the structural summary for
// arbitrary random graphs.
func TestQuickConfigRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%30
		g := RandomWAN("q", n, n/4, seed)
		var buf bytes.Buffer
		if err := g.ToConfig().WriteConfig(&buf); err != nil {
			return false
		}
		c, err := ReadConfig(&buf)
		if err != nil {
			return false
		}
		g2, err := c.Build()
		if err != nil {
			return false
		}
		return g2.Summary() == g.Summary()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSwitchPortCountExcludesHosts(t *testing.T) {
	g := Line(3, 2) // 2 switch links -> 4 switch ports; 6 host links excluded
	if got := g.SwitchPortCount(); got != 4 {
		t.Errorf("SwitchPortCount = %d, want 4", got)
	}
	if got := g.HostFacingPorts(); got != 6 {
		t.Errorf("HostFacingPorts = %d, want 6", got)
	}
}

func TestStringAndSummary(t *testing.T) {
	g := FatTree(4)
	s := g.Summary()
	if s.SwitchPortsUsed != 64 { // 32 switch-switch links x 2 ports
		t.Errorf("SwitchPortsUsed = %d, want 64", s.SwitchPortsUsed)
	}
	str := g.String()
	if str == "" {
		t.Error("empty String()")
	}
}

func TestEdgeBetween(t *testing.T) {
	g := Ring(5, 0)
	sw := g.Switches()
	if g.EdgeBetween(sw[0], sw[1]) < 0 {
		t.Error("adjacent ring switches not connected")
	}
	if g.EdgeBetween(sw[0], sw[2]) >= 0 {
		t.Error("non-adjacent ring switches reported connected")
	}
}

// TestIncrementalAdjacencyMatchesRebuild drives random mutation
// sequences — switches, hosts, Connect, ConnectPorts, self loops and
// parallel edges — and after every step compares the adjacency the
// mutators keep current with one rebuilt from Vertices and Edges.
func TestIncrementalAdjacencyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		g := New(fmt.Sprintf("mut-%d", trial))
		for step := 0; step < 60; step++ {
			n := len(g.Vertices)
			switch op := rng.Intn(5); {
			case n < 2 || op == 0:
				g.AddSwitch("")
			case op == 1:
				g.AddHost("")
			case op == 2:
				a, b := rng.Intn(n), rng.Intn(n)
				g.ConnectPorts(a, 1+rng.Intn(6), b, 1+rng.Intn(6))
			default:
				g.Connect(rng.Intn(n), rng.Intn(n))
			}
			checkAgainstRebuild(t, g)
		}
	}
}

// checkAgainstRebuild compares the CSR rows, Degree, Switches, Hosts,
// EdgeBetween and HostSwitch with their definitions over Vertices and
// Edges.
func checkAgainstRebuild(t *testing.T, g *Graph) {
	t.Helper()
	adj := adjacencyOf(g)
	var sw, hosts []int
	for _, v := range g.Vertices {
		if v.Kind == Switch {
			sw = append(sw, v.ID)
		} else {
			hosts = append(hosts, v.ID)
		}
	}
	if !slices.Equal(g.Switches(), sw) || !slices.Equal(g.Hosts(), hosts) {
		t.Fatalf("%s: Switches/Hosts = %v/%v, rebuild %v/%v", g.Name, g.Switches(), g.Hosts(), sw, hosts)
	}
	for v := range g.Vertices {
		if !slices.Equal(rowByEdgeID(g, v), adj[v]) || g.Degree(v) != len(adj[v]) {
			t.Fatalf("%s: row %d holds edges %v, rebuild %v", g.Name, v, rowByEdgeID(g, v), adj[v])
		}
		c := g.CSR()
		for i := c.Start[v]; i < c.Start[v+1]; i++ {
			if e := g.Edges[c.Edge[i]]; int(c.Nbr[i]) != e.Other(v) || int(c.Port[i]) != e.PortAt(v) {
				t.Fatalf("%s: row %d half-edge %d disagrees with edge %d", g.Name, v, i-c.Start[v], e.ID)
			}
			if i > c.Start[v] && (c.Nbr[i-1] > c.Nbr[i] || c.Nbr[i-1] == c.Nbr[i] && c.Edge[i-1] > c.Edge[i]) {
				t.Fatalf("%s: row %d not in (neighbour, edge ID) order", g.Name, v)
			}
		}
		wantSwitch := -1
		for _, eid := range adj[v] {
			if o := g.Edges[eid].Other(v); g.Vertices[o].Kind == Switch {
				wantSwitch = o
				break
			}
		}
		if got := g.HostSwitch(v); got != wantSwitch {
			t.Fatalf("%s: HostSwitch(%d) = %d, rebuild %d", g.Name, v, got, wantSwitch)
		}
		for o := range g.Vertices {
			want := -1
			for _, eid := range adj[v] {
				if g.Edges[eid].Other(v) == o {
					want = eid
					break
				}
			}
			if got := g.EdgeBetween(v, o); got != want {
				t.Fatalf("%s: EdgeBetween(%d,%d) = %d, rebuild %d", g.Name, v, o, got, want)
			}
		}
	}
}

func ExampleFatTree() {
	g := FatTree(4)
	fmt.Println(g.NumSwitches(), g.NumHosts())
	// Output: 20 16
}

func BenchmarkFatTreeGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FatTree(8)
	}
}

func BenchmarkZooGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Zoo(int64(i))
	}
}

var benchSink int

func BenchmarkShortestPaths(b *testing.B) {
	g := Torus3D(8, 8, 8, 0)
	rng := rand.New(rand.NewSource(1))
	sw := g.Switches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := g.ShortestPaths(sw[rng.Intn(len(sw))])
		benchSink += d[0]
	}
}
