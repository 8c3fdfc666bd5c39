package routing

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// checkAllPairs traces every host pair and fails on missing rules,
// loops, or misdelivery. Returns total hops for shape checks.
func checkAllPairs(t *testing.T, r *Routes) int {
	t.Helper()
	hosts := r.Topo.Hosts()
	total := 0
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			path, err := r.TracePath(s, d)
			if err != nil {
				t.Fatalf("%s: %v", r.Strategy, err)
			}
			total += len(path)
		}
	}
	return total
}

func TestShortestPathOnLine(t *testing.T) {
	g := topology.Line(8, 1)
	r, err := ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	// End-to-end path must traverse all 8 switches.
	hosts := g.Hosts()
	path, err := r.TracePath(hosts[0], hosts[7])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 8 {
		t.Errorf("line path length = %d switches, want 8", len(path))
	}
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("line shortest-path should be deadlock-free: %v", err)
	}
}

// TestTracePathRejectsNonHostSource holds Walk to its error for a
// source that is not a host: out of range on either side, or a switch.
func TestTracePathRejectsNonHostSource(t *testing.T) {
	g := topology.Line(4, 1)
	r, err := ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Hosts()[3]
	for _, src := range []int{-1, len(g.Vertices), g.Switches()[0]} {
		if path, err := r.TracePath(src, h); err == nil {
			t.Errorf("TracePath(%d, %d) = %v, want an error: %d is not a host", src, h, path, src)
		}
	}
}

func TestShortestPathMinimality(t *testing.T) {
	g := topology.Torus2D(4, 4, 1)
	r, err := ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for _, s := range hosts {
		dist := g.ShortestPaths(g.HostSwitch(s))
		for _, d := range hosts {
			if s == d {
				continue
			}
			path, err := r.TracePath(s, d)
			if err != nil {
				t.Fatal(err)
			}
			want := dist[g.HostSwitch(d)] + 1
			if len(path) != want {
				t.Errorf("path %d->%d: %d switches, want %d", s, d, len(path), want)
			}
		}
	}
}

func TestFatTreeDFS(t *testing.T) {
	g := topology.FatTree(4)
	r, err := FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("up-down routing must be deadlock-free: %v", err)
	}
	// Same-pod same-edge pairs must not leave the edge switch.
	hosts := g.Hosts()
	path, err := r.TracePath(hosts[0], hosts[1]) // h-0-0-0 and h-0-0-1
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 {
		t.Errorf("same-edge pair path = %d switches, want 1", len(path))
	}
	// Cross-pod pairs climb to a core: 5 switches (edge,agg,core,agg,edge).
	last := hosts[len(hosts)-1]
	path, err = r.TracePath(hosts[0], last)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 {
		t.Errorf("cross-pod path = %d switches, want 5", len(path))
	}
}

func TestFatTreeDFSSpreadsCore(t *testing.T) {
	g := topology.FatTree(4)
	r, err := FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	src := hosts[0]
	cores := map[int]bool{}
	for _, d := range hosts[8:] { // other pods
		path, err := r.TracePath(src, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range path {
			if g.Vertices[sw].Coord[0] == 0 {
				cores[sw] = true
			}
		}
	}
	if len(cores) < 2 {
		t.Errorf("all cross-pod traffic from one host used %d core(s); want spread >= 2", len(cores))
	}
}

func TestDragonflyMinimal(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	r, err := DragonflyMinimal{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if r.NumVCs != 2 {
		t.Errorf("NumVCs = %d, want 2", r.NumVCs)
	}
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("dragonfly minimal with VC change must be deadlock-free: %v", err)
	}
	// Minimal paths: at most 3 switch-switch hops (local, global, local)
	// => at most 4 switches on the path.
	hosts := g.Hosts()
	for _, s := range hosts[:6] {
		for _, d := range hosts {
			if s == d {
				continue
			}
			path, err := r.TracePath(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) > 4 {
				t.Errorf("dragonfly path %d->%d has %d switches (> 4)", s, d, len(path))
			}
		}
	}
}

func TestMeshXY(t *testing.T) {
	g := topology.Mesh2D(4, 4, 1)
	r, err := MeshXY{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("XY routing must be deadlock-free: %v", err)
	}
	// XY: X is corrected before Y on every path.
	hosts := g.Hosts()
	for _, s := range hosts[:4] {
		for _, d := range hosts {
			if s == d {
				continue
			}
			path, err := r.TracePath(s, d)
			if err != nil {
				t.Fatal(err)
			}
			yStarted := false
			for i := 1; i < len(path); i++ {
				pc := g.Vertices[path[i-1]].Coord
				cc := g.Vertices[path[i]].Coord
				if pc[1] != cc[1] {
					yStarted = true
				} else if pc[0] != cc[0] && yStarted {
					t.Fatalf("path %d->%d moves in X after Y", s, d)
				}
			}
		}
	}
}

func TestMeshXYZ(t *testing.T) {
	g := topology.Mesh3D(3, 3, 3, 1)
	r, err := MeshXYZ{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("XYZ routing must be deadlock-free: %v", err)
	}
}

func TestTorusClue2D(t *testing.T) {
	g := topology.Torus2D(5, 5, 1)
	r, err := TorusClue{Dims: 2}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if r.NumVCs != 2 {
		t.Errorf("NumVCs = %d, want 2", r.NumVCs)
	}
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("torus dateline routing must be deadlock-free: %v", err)
	}
	// Shortest-way-around: max per-dimension hops is 2 on a 5-ring, so
	// max path = 2+2 switch hops => 5 switches.
	hosts := g.Hosts()
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			path, err := r.TracePath(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) > 5 {
				t.Errorf("torus path %d->%d = %d switches (> 5)", s, d, len(path))
			}
		}
	}
}

func TestTorusClue3D(t *testing.T) {
	g := topology.Torus3D(4, 4, 4, 1)
	r, err := TorusClue{Dims: 3}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("3D torus dateline routing must be deadlock-free: %v", err)
	}
}

// clockwiseRing routes every destination of a ring around it in one
// direction: every packet is delivered, and the channels form a cycle.
func clockwiseRing(g *topology.Graph) *Routes {
	csr := g.CSR()
	sw := g.Switches()
	r := newRoutes(g, "clockwise-ring", 1)
	for i, s := range sw {
		next := sw[(i+1)%len(sw)]
		for _, d := range g.Hosts() {
			if g.HostSwitch(d) == s {
				r.add(Rule{Switch: s, Dst: d, Tag: openflow.Any, OutPort: csr.PortTo(s, d), NewTag: -1})
			} else {
				r.add(Rule{Switch: s, Dst: d, Tag: openflow.Any, OutPort: csr.PortTo(s, next), NewTag: -1})
			}
		}
	}
	return r
}

func TestDeadlockDetectorFindsCycle(t *testing.T) {
	// Hand-built cyclic routes on a 3-switch ring: everything forwarded
	// clockwise, including to non-adjacent destinations — the canonical
	// ring deadlock.
	err := VerifyDeadlockFree(clockwiseRing(topology.Ring(3, 1)))
	if err == nil {
		t.Fatal("cyclic clockwise ring routing passed the deadlock check")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error does not name the cycle: %v", err)
	}
}

// fibWalk walks host src to host dst the way the packet engine
// forwards, over the compiled FIB, finding each hop's edge among the
// switch's incident edges. It returns the switches passed and the
// switch-to-switch channels held; ok is false on a miss, a dangling
// port, a misdelivery or a walk longer than every switch on every VC.
func fibWalk(r *Routes, src, dst int) (switches []int, chans []Channel, ok bool) {
	g := r.Topo
	csr := g.CSR()
	fib := r.FIB()
	cur := g.HostSwitch(src)
	if cur < 0 {
		return nil, nil, false
	}
	inPort := g.Edges[g.EdgeBetween(src, cur)].PortAt(cur)
	tag := 0
	for range len(g.Vertices)*max(r.NumVCs, 1) + 1 {
		switches = append(switches, cur)
		out, newTag, hit := fib.Forward(cur, inPort, dst, tag)
		if !hit {
			return nil, nil, false
		}
		tag = newTag
		// The edge behind port out: of several, the lowest ID.
		eid := -1
		for i := csr.Start[cur]; i < csr.Start[cur+1]; i++ {
			if int(csr.Port[i]) == out && (eid < 0 || int(csr.Edge[i]) < eid) {
				eid = int(csr.Edge[i])
			}
		}
		if eid < 0 {
			return nil, nil, false
		}
		nxt := g.Edges[eid].Other(cur)
		if nxt == dst {
			return switches, chans, true
		}
		if g.Vertices[nxt].Kind != topology.Switch {
			return nil, nil, false
		}
		chans = append(chans, Channel{Edge: eid, From: cur, VC: tag})
		inPort = g.Edges[eid].PortAt(nxt)
		cur = nxt
	}
	return nil, nil, false
}

// TestWalkConsumersMatchFIB holds the route walk's consumers to the
// packet engine's walk over the FIB: for every host pair, TracePath's
// switches and the deadlock verifier's channels must be fibWalk's. It
// covers every generator's example fabric under its Table III
// strategy, a dragonfly under UGAL with its group 0 <-> 1 global links
// loaded (non-minimal paths that follow the tag), and the clockwise
// ring, whose channels form the cycle the verifier reports.
func TestWalkConsumersMatchFIB(t *testing.T) {
	var sets []*Routes
	for _, gen := range topology.Generators {
		g, err := (&topology.Config{Generator: gen.Name, Params: gen.Example}).Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ForTopology(g).Compute(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		sets = append(sets, r)
	}
	df := topology.Dragonfly(4, 9, 2, 1)
	loads := make([]float64, len(df.Edges))
	for _, eid := range df.SwitchSwitchEdges() {
		if e := df.Edges[eid]; df.Vertices[e.A].Coord[0]+df.Vertices[e.B].Coord[0] == 1 {
			loads[eid] = 1e9
		}
	}
	ugal, err := DragonflyUGAL{Loads: loads, Bias: 1}.Compute(df)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, ugal, clockwiseRing(topology.Ring(4, 1)))
	for _, r := range sets {
		hosts := r.Topo.Hosts()
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				wantSw, wantCh, ok := fibWalk(r, src, dst)
				if !ok {
					t.Fatalf("%s on %s: the FIB walk %d->%d fails", r.Strategy, r.Topo.Name, src, dst)
				}
				sw, err := r.TracePath(src, dst)
				if err != nil || !slices.Equal(sw, wantSw) {
					t.Fatalf("%s on %s: TracePath(%d, %d) = %v, %v; the FIB walk passes %v",
						r.Strategy, r.Topo.Name, src, dst, sw, err, wantSw)
				}
				ch, err := traceChannels(r, src, dst)
				if err != nil || !slices.Equal(ch, wantCh) {
					t.Fatalf("%s on %s: traceChannels(%d, %d) = %v, %v; the FIB walk holds %v",
						r.Strategy, r.Topo.Name, src, dst, ch, err, wantCh)
				}
			}
		}
	}
}

// readAll returns every answer r gives a forwarding or path-finding
// caller — each switch's Lookup and FIB.Forward toward each host on
// each ingress port and tag, and each host pair's Walk — one section
// per accessor, the sections read in turn from accessor first on
// (0 Lookup, 1 Walk, 2 FIB).
func readAll(r *Routes, first int) []int {
	g := r.Topo
	hosts := g.Hosts()
	var parts [3][]int
	for k := range parts {
		acc := (first + k) % len(parts)
		out := parts[acc]
		if acc == 1 {
			for _, src := range hosts {
				for _, dst := range hosts {
					if src == dst {
						continue
					}
					err := r.Walk(src, dst, func(from, edge, tag int) { out = append(out, from, edge, tag) })
					out = append(out, -1, boolInt(err == nil))
				}
			}
			parts[acc] = out
			continue
		}
		for _, sw := range g.Switches() {
			for _, dst := range hosts {
				for in := 0; in <= g.Radix(); in++ {
					for tag := range max(r.NumVCs, 1) {
						if acc == 2 {
							port, nt, ok := r.FIB().Forward(sw, in, dst, tag)
							out = append(out, port, nt, boolInt(ok))
						} else if rule := r.Lookup(sw, in, dst, tag); rule != nil {
							out = append(out, rule.Switch, rule.InPort, rule.Dst, rule.Tag, rule.OutPort, rule.NewTag)
						} else {
							out = append(out, -1)
						}
					}
				}
			}
		}
		parts[acc] = out
	}
	return slices.Concat(parts[:]...)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestConcurrentFirstLookup runs the first reads of shared, never-read
// route sets from several goroutines at once: under -race the lazy
// lookup index and FIB builds must be race-free, and every reader must
// get the answers of a serial read of a twin set. It covers every
// generator's example fabric under its Table III strategy and a manual
// set read once and then changed by AddRule, so its first read after
// the change rebuilds both.
func TestConcurrentFirstLookup(t *testing.T) {
	type twins struct{ shared, ref *Routes }
	var sets []twins
	for _, gen := range topology.Generators {
		g, err := (&topology.Config{Generator: gen.Name, Params: gen.Example}).Build()
		if err != nil {
			t.Fatal(err)
		}
		var pair [2]*Routes
		for i := range pair {
			if pair[i], err = ForTopology(g).Compute(g); err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
		}
		sets = append(sets, twins{pair[0], pair[1]})
	}
	ring := topology.Ring(4, 1)
	manual := func() *Routes {
		r := NewManualRoutes(ring, "manual", 1)
		for _, rule := range clockwiseRing(ring).Rules {
			r.AddRule(rule)
		}
		r.Lookup(0, 0, ring.Hosts()[0], 0)
		// Packets for the host two hops on that enter switch 0 from its
		// host turn counter-clockwise: an ingress-port rule, which the
		// FIB spills.
		sw, h := ring.Switches(), ring.Hosts()[0]
		csr := ring.CSR()
		r.AddRule(Rule{Switch: sw[0], InPort: csr.PortTo(sw[0], h), Dst: ring.Hosts()[2], Tag: openflow.Any,
			OutPort: csr.PortTo(sw[0], sw[3]), NewTag: -1})
		return r
	}
	sets = append(sets, twins{manual(), manual()})
	const readers = 4
	for _, set := range sets {
		want := readAll(set.ref, 0)
		got := make([][]int, readers)
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = readAll(set.shared, i)
			}()
		}
		wg.Wait()
		for i := range got {
			if !slices.Equal(got[i], want) {
				t.Errorf("%s on %s: reader %d reads differently from a serial read", set.ref.Strategy, set.ref.Topo.Name, i)
			}
		}
	}
}

func TestUGALMinimalWhenIdle(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	r, err := DragonflyUGAL{Bias: 1}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("idle UGAL must be deadlock-free: %v", err)
	}
	// With no load, every path must be minimal (<= 4 switches).
	hosts := g.Hosts()
	for _, s := range hosts[:4] {
		for _, d := range hosts {
			if s == d {
				continue
			}
			path, err := r.TracePath(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) > 4 {
				t.Errorf("idle UGAL took non-minimal path %d->%d (%d switches)", s, d, len(path))
			}
		}
	}
}

func TestUGALDivertsUnderLoad(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	// Saturate every global link out of group 0 toward group 1.
	loads := make([]float64, len(g.Edges))
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		ga, gb := g.Vertices[e.A].Coord[0], g.Vertices[e.B].Coord[0]
		if (ga == 0 && gb == 1) || (ga == 1 && gb == 0) {
			loads[eid] = 1e9
		}
	}
	r, err := DragonflyUGAL{Loads: loads, Bias: 1}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, r)
	if err := VerifyDeadlockFree(r); err != nil {
		t.Errorf("loaded UGAL must stay deadlock-free: %v", err)
	}
	// A group-0 host reaching a group-1 host must now detour: > 4 switches.
	var src, dst int = -1, -1
	for _, h := range g.Hosts() {
		grp := g.Vertices[g.HostSwitch(h)].Coord[0]
		if grp == 0 && src < 0 {
			src = h
		}
		if grp == 1 && dst < 0 {
			dst = h
		}
	}
	path, err := r.TracePath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The diverted path must transit an intermediate group and must not
	// use any saturated global link.
	sawIntermediate := false
	for _, sw := range path {
		if grp := g.Vertices[sw].Coord[0]; grp != 0 && grp != 1 {
			sawIntermediate = true
		}
	}
	if !sawIntermediate {
		t.Errorf("UGAL did not divert under load: path groups stayed in {0,1}: %v", path)
	}
	for i := 1; i < len(path); i++ {
		eid := g.EdgeBetween(path[i-1], path[i])
		if loads[eid] > 0 {
			t.Errorf("diverted path still crosses saturated edge %d", eid)
		}
	}
}

func TestForTopology(t *testing.T) {
	cases := []struct {
		g    *topology.Graph
		want string
	}{
		{topology.FatTree(4), "fattree-dfs"},
		{topology.Dragonfly(4, 9, 2, 1), "dragonfly-minimal"},
		{topology.Mesh2D(3, 3, 1), "mesh-xy"},
		{topology.Mesh3D(2, 2, 2, 1), "mesh-xyz"},
		{topology.Torus2D(4, 4, 1), "torus-clue-2d"},
		{topology.Torus3D(3, 3, 3, 1), "torus-clue-3d"},
		{topology.Ring(5, 1), "shortest-path"},
	}
	for _, c := range cases {
		if got := ForTopology(c.g).Name(); got != c.want {
			t.Errorf("ForTopology(%s) = %s, want %s", c.g.Name, got, c.want)
		}
	}
}

// TestForTopologyFollowsFamily renames every generator config: the
// strategy follows the generator, not the name. An explicit file keeps
// reading its family from its name.
func TestForTopologyFollowsFamily(t *testing.T) {
	for _, gen := range topology.Generators {
		var got [2]Strategy
		for i, name := range []string{"", "lab"} {
			c := topology.Config{Name: name, Generator: gen.Name, Params: gen.Example}
			g, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = ForTopology(g)
		}
		if got[0] != got[1] {
			t.Errorf("%s: renamed config routes with %s, unnamed with %s", gen.Name, got[1].Name(), got[0].Name())
		}
	}
	g, err := (&topology.Config{Name: "torus2d-lab", Switches: []string{"a"}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ForTopology(g).Name(); got != "torus-clue-2d" {
		t.Errorf("explicit torus2d-lab routes with %s", got)
	}
}

// TestStrategiesRejectBadCoords: a configuration file sets the switch
// coordinates the Table III strategies index by, so they check them.
// Negative coordinates, ones too large for the switch count, and two
// grid switches at one position are an error, not an index out of
// range or a table allocated for positions no switch holds.
func TestStrategiesRejectBadCoords(t *testing.T) {
	cases := []struct {
		family string
		a, b   []int
	}{
		{"fattree", []int{1, 0, 0}, []int{1, 1 << 30, 1 << 30}},
		{"fattree", []int{1, 0, 0}, []int{2, -1, 0}},
		{"fattree", []int{1, 0, 0}, []int{1, 1, 1}},
		{"dragonfly", []int{0, 0}, []int{-1, 0}},
		{"dragonfly", []int{0, 0}, []int{1 << 30, 0}},
	}
	for _, fam := range []string{"mesh2d", "torus2d", "mesh3d", "torus3d"} {
		for _, b := range [][]int{{-7, 1000000, 3}, {0, -1, 0}, {1 << 30, 1 << 30, 1 << 30}, {2, 0, 0}, {0, 0, 0}} {
			cases = append(cases, struct {
				family string
				a, b   []int
			}{fam, []int{0, 0, 0}, b})
		}
	}
	for _, c := range cases {
		cfg := topology.Config{
			Name:     c.family + "-file",
			Switches: []string{"a", "b"},
			Hosts:    []string{"ha", "hb"},
			Links:    []topology.LinkConfig{{A: "a", B: "b"}, {A: "a", B: "ha"}, {A: "b", B: "hb"}},
			Coords:   map[string][]int{"a": c.a, "b": c.b},
		}
		g, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ForTopology(g).Compute(g); err == nil {
			t.Errorf("%s with switches at %v and %v: routes computed", c.family, c.a, c.b)
		}
	}
}

// TestHostWithoutSwitchIsAnError: a host a configuration file links to
// nothing is an error for every strategy, not an index out of range.
func TestHostWithoutSwitchIsAnError(t *testing.T) {
	for _, gen := range topology.Generators {
		g, err := (&topology.Config{Generator: gen.Name, Params: gen.Example}).Build()
		if err != nil {
			t.Fatal(err)
		}
		c := g.ToConfig()
		c.Hosts = append(c.Hosts, "orphan")
		if g, err = c.Build(); err != nil {
			t.Fatal(err)
		}
		strat := ForTopology(g)
		want := fmt.Sprintf("routing: %s: host %d has no switch", strat.Name(), len(g.Vertices)-1)
		if _, err := strat.Compute(g); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %s", gen.Name, err, want)
		}
	}
}

// TestLookupSpecificity: the most specific rule of a group wins. In
// Line(2, 49)'s 100 vertices, destinations 98 and 99 are hosts.
func TestLookupSpecificity(t *testing.T) {
	g := topology.Line(2, 49)
	r := newRoutes(g, "test", 2)
	sw := g.Switches()[0]
	r.add(Rule{Switch: sw, Dst: 99, Tag: openflow.Any, OutPort: 1, NewTag: -1})
	r.add(Rule{Switch: sw, Dst: 99, Tag: 1, OutPort: 2, NewTag: -1})
	r.add(Rule{Switch: sw, InPort: 3, Dst: 99, Tag: openflow.Any, OutPort: 3, NewTag: -1})
	if got := r.Lookup(sw, 3, 99, 0).OutPort; got != 3 {
		t.Errorf("in-port rule should win, got out %d", got)
	}
	if got := r.Lookup(sw, 1, 99, 1).OutPort; got != 2 {
		t.Errorf("tag rule should win, got out %d", got)
	}
	if got := r.Lookup(sw, 1, 99, 0).OutPort; got != 1 {
		t.Errorf("fallback rule should win, got out %d", got)
	}
	if r.Lookup(sw, 1, 98, 0) != nil {
		t.Error("lookup for unknown dst should miss")
	}
}

// Property: shortest-path routing on random connected WANs always
// completes all pairs with minimal hop counts.
func TestQuickShortestPathComplete(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 3 + int(nRaw)%12
		g := topology.RandomWAN("q", n, n/3, seed)
		r, err := ShortestPath{}.Compute(g)
		if err != nil {
			return false
		}
		hosts := g.Hosts()
		for _, s := range hosts {
			dist := g.ShortestPaths(g.HostSwitch(s))
			for _, d := range hosts {
				if s == d {
					continue
				}
				path, err := r.TracePath(s, d)
				if err != nil {
					return false
				}
				if len(path) != dist[g.HostSwitch(d)]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDragonflyMinimalCompute(b *testing.B) {
	g := topology.Dragonfly(4, 9, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DragonflyMinimal{}).Compute(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDeadlockFreeTorus(b *testing.B) {
	g := topology.Torus2D(5, 5, 1)
	r, err := TorusClue{Dims: 2}.Compute(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDeadlockFree(r); err != nil {
			b.Fatal(err)
		}
	}
}
