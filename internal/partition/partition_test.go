package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mustCut(t *testing.T, g *topology.Graph, k int, opt Options) *Result {
	t.Helper()
	r, err := Cut(g, k, opt)
	if err != nil {
		t.Fatalf("Cut(%s, %d): %v", g.Name, k, err)
	}
	return r
}

// checkWellFormed verifies structural invariants of any partition result.
func checkWellFormed(t *testing.T, g *topology.Graph, r *Result) {
	t.Helper()
	for _, s := range g.Switches() {
		if p := r.Assign[s]; p < 0 || p >= r.K {
			t.Fatalf("switch %d assigned to invalid part %d", s, p)
		}
	}
	for _, h := range g.Hosts() {
		s := g.HostSwitch(h)
		if s >= 0 && r.Assign[h] != r.Assign[s] {
			t.Fatalf("host %d in part %d but its switch %d in part %d", h, r.Assign[h], s, r.Assign[s])
		}
	}
	cut := 0
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		if r.Assign[e.A] != r.Assign[e.B] {
			cut++
		}
	}
	if cut != r.CutEdges {
		t.Fatalf("CutEdges = %d but recount = %d", r.CutEdges, cut)
	}
	totalSw := 0
	for p := 0; p < r.K; p++ {
		if r.PartSwitches[p] == 0 {
			t.Fatalf("part %d is empty", p)
		}
		totalSw += r.PartSwitches[p]
	}
	if totalSw != g.NumSwitches() {
		t.Fatalf("switch counts: %d != %d", totalSw, g.NumSwitches())
	}
}

func TestCutK1(t *testing.T) {
	g := topology.FatTree(4)
	r := mustCut(t, g, 1, Options{})
	checkWellFormed(t, g, r)
	if r.CutEdges != 0 {
		t.Errorf("k=1 cut = %d, want 0", r.CutEdges)
	}
}

func TestTorus4x4TwoWay(t *testing.T) {
	// Paper Fig. 7: a 4x4 2D-torus split over 2 switches needs 8
	// inter-switch links (the optimal bisection cuts two torus rings,
	// each contributing 4 wrap+cross links).
	g := topology.Torus2D(4, 4, 0)
	r := mustCut(t, g, 2, Options{})
	checkWellFormed(t, g, r)
	if r.CutEdges != 8 {
		t.Errorf("Torus2D(4,4) 2-way cut = %d, want 8", r.CutEdges)
	}
	if r.Imbalance > 0.01 {
		t.Errorf("imbalance = %.3f, want ~0 for symmetric torus", r.Imbalance)
	}
}

func TestTorus4x4FourWay(t *testing.T) {
	// Fig. 7 right: 4 switches, each holding a 2x2 block with 12
	// self-links... each 2x2 block of a 4x4 torus has 4 internal links,
	// and 8 links leave each block. Total cut = 4 blocks * 8 / 2 = 16.
	g := topology.Torus2D(4, 4, 0)
	r := mustCut(t, g, 4, Options{})
	checkWellFormed(t, g, r)
	if r.CutEdges > 20 { // optimal grid blocking gives 16
		t.Errorf("Torus2D(4,4) 4-way cut = %d, want <= 20 (optimal 16)", r.CutEdges)
	}
	if r.Imbalance > 0.25 {
		t.Errorf("imbalance = %.3f too high", r.Imbalance)
	}
}

func TestFatTreeTwoWay(t *testing.T) {
	// §VII-C: fat-tree k=4 projected onto 2 switches.
	g := topology.FatTree(4)
	r := mustCut(t, g, 2, Options{})
	checkWellFormed(t, g, r)
	if r.CutEdges >= len(g.SwitchSwitchEdges()) {
		t.Errorf("cut %d not better than trivial %d", r.CutEdges, len(g.SwitchSwitchEdges()))
	}
	if r.Imbalance > 0.30 {
		t.Errorf("imbalance = %.3f too high", r.Imbalance)
	}
}

func TestBalancedVsMinCut(t *testing.T) {
	// Fig. 8: a line graph cut into 2. Min-cut alone may produce wildly
	// unbalanced parts; the Balanced objective must keep ports even.
	g := topology.Line(16, 1)
	bal := mustCut(t, g, 2, Options{Objective: Balanced})
	checkWellFormed(t, g, bal)
	if bal.CutEdges != 1 {
		t.Errorf("balanced line cut = %d, want 1", bal.CutEdges)
	}
	if bal.Imbalance > 0.15 {
		t.Errorf("balanced imbalance = %.3f, want <= 0.15", bal.Imbalance)
	}
	mc := mustCut(t, g, 2, Options{Objective: MinCut})
	checkWellFormed(t, g, mc)
	if mc.CutEdges != 1 {
		t.Errorf("min-cut line cut = %d, want 1", mc.CutEdges)
	}

	// A 4x4x4 torus cut into 3 shows the trade-off: min-cut severs far
	// fewer edges (11 vs 62) but leaves one part holding most of the
	// ports (190.6% vs 7.8% imbalance).
	g = topology.Torus3D(4, 4, 4, 1)
	bal = mustCut(t, g, 3, Options{Objective: Balanced})
	checkWellFormed(t, g, bal)
	mc = mustCut(t, g, 3, Options{Objective: MinCut})
	checkWellFormed(t, g, mc)
	if mc.CutEdges >= bal.CutEdges {
		t.Errorf("torus min-cut cut = %d, want < balanced %d", mc.CutEdges, bal.CutEdges)
	}
	if bal.Imbalance >= mc.Imbalance {
		t.Errorf("torus balanced imbalance = %.3f, want < min-cut %.3f", bal.Imbalance, mc.Imbalance)
	}
}

func TestBalancedKeepsEpsilon(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	for _, k := range []int{2, 3, 4} {
		r := mustCut(t, g, k, Options{Objective: Balanced, Epsilon: 0.10})
		checkWellFormed(t, g, r)
		if r.Imbalance > 0.35 {
			t.Errorf("k=%d imbalance = %.3f exceeds slack", k, r.Imbalance)
		}
	}
}

func TestCutErrors(t *testing.T) {
	g := topology.Line(3, 0)
	if _, err := Cut(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cut(g, 4, Options{}); err == nil {
		t.Error("k > switches accepted")
	}
	empty := topology.New("empty")
	if _, err := Cut(empty, 1, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := topology.FatTree(6)
	a := mustCut(t, g, 3, Options{Seed: 7})
	b := mustCut(t, g, 3, Options{Seed: 7})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("non-deterministic assignment at vertex %d", i)
		}
	}
}

// TestCutEdgesMatchesAssign: Result.CutEdges is exactly the number of
// switch-switch edges whose ends Assign puts on different parts.
func TestCutEdgesMatchesAssign(t *testing.T) {
	g := topology.Torus2D(4, 4, 0)
	r := mustCut(t, g, 2, Options{})
	cut := 0
	for _, eid := range g.SwitchSwitchEdges() {
		if e := g.Edges[eid]; r.Assign[e.A] != r.Assign[e.B] {
			cut++
		}
	}
	if cut != r.CutEdges {
		t.Fatalf("Assign cuts %d edges, CutEdges = %d", cut, r.CutEdges)
	}
}

func TestLargerTopologies(t *testing.T) {
	for _, tc := range []struct {
		g *topology.Graph
		k int
	}{
		{topology.FatTree(8), 4},
		{topology.Torus3D(4, 4, 4, 1), 4},
		{topology.Dragonfly(4, 9, 2, 1), 3},
		{topology.BCube(4, 1), 2},
	} {
		r := mustCut(t, tc.g, tc.k, Options{})
		checkWellFormed(t, tc.g, r)
		trivialCut := len(tc.g.SwitchSwitchEdges())
		if r.CutEdges >= trivialCut {
			t.Errorf("%s k=%d: cut %d not better than total %d", tc.g.Name, tc.k, r.CutEdges, trivialCut)
		}
	}
}

// Property: partitioning any connected random WAN into k in {2,3} keeps
// all invariants and never cuts more edges than the graph has.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 6 + int(nRaw)%40
		k := 2 + int(kRaw)%2
		g := topology.RandomWAN("q", n, n/4, seed)
		r, err := Cut(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if r.CutEdges > len(g.SwitchSwitchEdges()) {
			return false
		}
		seen := make([]int, k)
		for _, s := range g.Switches() {
			if r.Assign[s] < 0 || r.Assign[s] >= k {
				return false
			}
			seen[r.Assign[s]]++
		}
		for _, c := range seen {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Balanced objective imbalance stays within a loose global
// bound on arbitrary random graphs (heavy vertices can force slack, so
// the bound is generous but finite).
func TestQuickBalance(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 10 + int(nRaw)%40
		g := topology.RandomWAN("q", n, n/3, seed)
		r, err := Cut(g, 2, Options{Objective: Balanced, Seed: seed})
		if err != nil {
			return false
		}
		return r.Imbalance < 0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
