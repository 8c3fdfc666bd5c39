package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mustCut(t *testing.T, g *topology.Graph, k int) *Result {
	t.Helper()
	r, err := Cut(g, k, Options{})
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
	r := mustCut(t, g, 1)
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
	r := mustCut(t, g, 2)
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
	r := mustCut(t, g, 4)
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
	r := mustCut(t, g, 2)
	checkWellFormed(t, g, r)
	if r.CutEdges >= len(g.SwitchSwitchEdges()) {
		t.Errorf("cut %d not better than trivial %d", r.CutEdges, len(g.SwitchSwitchEdges()))
	}
	if r.Imbalance > 0.30 {
		t.Errorf("imbalance = %.3f too high", r.Imbalance)
	}
}

func TestLineTwoWay(t *testing.T) {
	// A line graph cut into 2 must be cut once, in the middle, so the
	// ports stay even.
	g := topology.Line(16, 1)
	r := mustCut(t, g, 2)
	checkWellFormed(t, g, r)
	if r.CutEdges != 1 {
		t.Errorf("line cut = %d, want 1", r.CutEdges)
	}
	if r.Imbalance > 0.15 {
		t.Errorf("imbalance = %.3f, want <= 0.15", r.Imbalance)
	}
}

func TestBalancedKeepsEpsilon(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	for _, k := range []int{2, 3, 4} {
		r := mustCut(t, g, k)
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
	a := mustCut(t, g, 3)
	b := mustCut(t, g, 3)
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
	r := mustCut(t, g, 2)
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
		r := mustCut(t, tc.g, tc.k)
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
		r, err := Cut(g, k, Options{})
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

// Property: the imbalance stays within a loose global
// bound on arbitrary random graphs (heavy vertices can force slack, so
// the bound is generous but finite).
func TestQuickBalance(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 10 + int(nRaw)%40
		g := topology.RandomWAN("q", n, n/3, seed)
		r, err := Cut(g, 2, Options{})
		if err != nil {
			return false
		}
		return r.Imbalance < 0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// mergedRows is the map-based merge workGraph and coarsen used to
// do: the weight between two distinct (mapped) vertices summed over
// every fine half-edge, as sorted rows.
func mergedRows(n int, halfEdges func(yield func(a, b, w int))) [][]nbr {
	acc := map[[2]int]int{}
	halfEdges(func(a, b, w int) {
		if a != b {
			acc[[2]int{a, b}] += w
		}
	})
	rows := make([][]nbr, n)
	for k, w := range acc {
		rows[k[0]] = append(rows[k[0]], nbr{k[1], w})
	}
	for _, row := range rows {
		slices.SortFunc(row, func(x, y nbr) int { return x.v - y.v })
	}
	return rows
}

// TestRowMergeMatchesMap checks the marker-array merge in worker.workGraph
// and worker.coarsen against mergedRows, on graphs with parallel links,
// self loops and hosts.
func TestRowMergeMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := newTestWorker() // one worker for every trial: its work graph and level are reused dirty
	w.src.Seed(9)
	var lvl level
	for trial := 0; trial < 200; trial++ {
		g := topology.New("merge")
		ns := 2 + rng.Intn(30)
		for i := 0; i < ns; i++ {
			g.AddSwitch("")
		}
		for i := rng.Intn(10); i > 0; i-- {
			g.Connect(g.AddHost(""), rng.Intn(ns))
		}
		for i := rng.Intn(4 * ns); i > 0; i-- {
			g.Connect(rng.Intn(ns), rng.Intn(ns)) // parallel links and self loops too
		}
		sw := g.Switches()
		wg := w.workGraph(g, sw)
		want := mergedRows(ns, func(yield func(a, b, w int)) {
			for _, eid := range g.SwitchSwitchEdges() {
				e := g.Edges[eid]
				yield(e.A, e.B, 1)
				yield(e.B, e.A, 1)
			}
		})
		for v := range wg.xadj {
			if !slices.Equal(wg.xadj[v], want[v]) {
				t.Fatalf("trial %d: workGraph row %d = %v, want %v", trial, v, wg.xadj[v], want[v])
			}
		}
		if !w.coarsen(wg, &lvl) {
			continue
		}
		coarse, cmap := &lvl.g, lvl.cmap
		want = mergedRows(len(coarse.vwgt), func(yield func(a, b, w int)) {
			for v, row := range wg.xadj {
				for _, nb := range row {
					yield(cmap[v], cmap[nb.v], nb.w)
				}
			}
		})
		for c := range coarse.xadj {
			if !slices.Equal(coarse.xadj[c], want[c]) {
				t.Fatalf("trial %d: coarse row %d = %v, want %v", trial, c, coarse.xadj[c], want[c])
			}
		}
	}
}
