package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestAllGeneratorsValidate(t *testing.T) {
	traces := []*Trace{
		Pingpong(1024, 5),
		Alltoall(8, 4096, 2),
		HaloExchange2D(16, 8192, 3, netsim.Millisecond),
		MiniGhost(16),
		HPCG(16),
		HPL(16),
		MiniFE(16),
		IMBAlltoall(8),
	}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
		if sentBytes(tr) == 0 {
			t.Errorf("%s: empty trace", tr.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range TableIVApps() {
		tr, err := ByName(name, 8)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tr.Ranks != 8 {
			t.Errorf("%s: ranks = %d", name, tr.Ranks)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nosuch", 4); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestValidateCatchesImbalance(t *testing.T) {
	tr := &Trace{Name: "bad", Ranks: 2, Programs: [][]netsim.Op{
		{{Kind: netsim.OpSend, Peer: 1, Bytes: 10, MTag: 1}},
		{}, // missing recv
	}}
	if err := tr.Validate(); err == nil {
		t.Error("unmatched send accepted")
	}
	tr2 := &Trace{Name: "bad2", Ranks: 2, Programs: [][]netsim.Op{
		{{Kind: netsim.OpSend, Peer: 5, Bytes: 10, MTag: 1}},
		{},
	}}
	if err := tr2.Validate(); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

// TestValidateNamesLowestUnmatched: a trace with two unmatched
// messages gets the same error on every call, naming the lowest
// (src, dst, tag).
func TestValidateNamesLowestUnmatched(t *testing.T) {
	tr := &Trace{Name: "two", Ranks: 3, Programs: [][]netsim.Op{
		{{Kind: netsim.OpSend, Peer: 2, Bytes: 10, MTag: 7}},
		{{Kind: netsim.OpSend, Peer: 0, Bytes: 10, MTag: 3}},
		{},
	}}
	const want = "workload two: unmatched message src=0 dst=2 tag=7 (balance +1)"
	for range 20 {
		if err := tr.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate() = %v, want %q", err, want)
		}
	}
}

// sentBytes sums the payload bytes every rank sends.
func sentBytes(tr *Trace) int64 {
	var s int64
	for _, prog := range tr.Programs {
		for _, op := range prog {
			if op.Kind == netsim.OpSend {
				s += int64(op.Bytes)
			}
		}
	}
	return s
}

// replay runs a trace on a fat-tree and returns the ACT.
func replay(t *testing.T, tr *Trace) netsim.Time {
	t.Helper()
	g := topology.FatTree(4)
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()[:tr.Ranks]
	app := netsim.NewApp(net, hosts, tr.Programs, nil)
	app.Start()
	net.Sim.Run(0)
	act := app.ACT()
	if act <= 0 {
		t.Fatalf("%s did not complete", tr.Name)
	}
	return act
}

func TestTableIVAppsReplayToCompletion(t *testing.T) {
	for _, name := range TableIVApps() {
		tr, err := ByName(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		act := replay(t, tr)
		// Table IV real ACTs are 0.11–16 s; our scaled-down versions
		// should land between 10 ms and 5 s.
		if act < 10*netsim.Millisecond || act > 5*netsim.Second {
			t.Errorf("%s ACT = %v, outside plausible scaled range", name, act)
		}
	}
}

func TestPingpongReplayRTT(t *testing.T) {
	tr := Pingpong(64, 10)
	act := replay(t, tr)
	// 10 round trips of a tiny message inside one pod: well under 1 ms.
	if act > netsim.Millisecond {
		t.Errorf("pingpong ACT = %v, too slow", act)
	}
}

func TestAlltoallScalesWithBytes(t *testing.T) {
	small := replay(t, Alltoall(8, 4096, 1))
	big := replay(t, Alltoall(8, 256*1024, 1))
	if big <= small {
		t.Errorf("alltoall ACT did not grow with message size: %v vs %v", small, big)
	}
}

func TestGrid2D(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 32: {4, 8}, 9: {3, 3}, 7: {1, 7}, 12: {3, 4}}
	for n, want := range cases {
		px, py := grid2D(n)
		if px*py != n || px != want[0] || py != want[1] {
			t.Errorf("grid2D(%d) = (%d,%d), want %v", n, px, py, want)
		}
	}
}

// Property: alltoall traces always balance for any size/count.
func TestQuickAlltoallBalanced(t *testing.T) {
	f := func(nRaw, bRaw uint8) bool {
		n := 2 + int(nRaw)%10
		b := 1 + int(bRaw)
		tr := Alltoall(n, b, 1)
		return tr.Validate() == nil && sentBytes(tr) == int64(n*(n-1)*b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHPCGGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HPCG(32)
	}
}

// ByName's error must name the valid applications so a caller can fix
// a typo without reading source.
func TestByNameUnknownListsCandidates(t *testing.T) {
	_, err := ByName("HPrG", 4)
	if err == nil {
		t.Fatal("unknown workload resolved")
	}
	for _, want := range TableIVApps() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
}

// TestGeneratorsMatchReference holds every Table IV application, and
// the collectives they are built from, to the reference generators:
// the same ops, tags and order for every rank, nil where the reference
// leaves a rank's program nil.
func TestGeneratorsMatchReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 32, 64} {
		pairs := []struct {
			name      string
			got, want *Trace
		}{
			{"HPCG", HPCG(n), refHPCG(n)},
			{"HPL", HPL(n), refHPL(n)},
			{"miniGhost", MiniGhost(n), refMiniGhost(n)},
			{"miniFE", MiniFE(n), refMiniFE(n)},
			{"IMB", IMBAlltoall(n), refIMBAlltoall(n)},
			{"Alltoall", Alltoall(n, 100, 3), refAlltoall(n, 100, 3)},
			{"HaloExchange2D", HaloExchange2D(n, 100, 2, 0), refHaloExchange2D(n, 100, 2, 0)},
		}
		for _, p := range pairs {
			if !reflect.DeepEqual(p.got, p.want) {
				t.Errorf("%s(%d) differs from the reference:\n%s", p.name, n, traceDiff(p.got, p.want))
			}
		}
	}
}

// traceDiff names the first difference between two traces.
func traceDiff(got, want *Trace) string {
	if got.Name != want.Name || got.Ranks != want.Ranks || len(got.Programs) != len(want.Programs) {
		return fmt.Sprintf("header %q/%d/%d, want %q/%d/%d", got.Name, got.Ranks, len(got.Programs), want.Name, want.Ranks, len(want.Programs))
	}
	for r := range want.Programs {
		g, w := got.Programs[r], want.Programs[r]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("rank %d: %d ops (nil %v), want %d (nil %v)", r, len(g), g == nil, len(w), w == nil)
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("rank %d op %d: %+v, want %+v", r, i, g[i], w[i])
			}
		}
	}
	return "no difference found"
}

// The generators as they were before they wrote ops in place: each
// HPCG or miniFE iteration built whole HaloExchange2D and AllreduceRing
// traces and copied them rank by rank. They are the reference the
// in-place generators must equal op for op.

func refAlltoall(n, bytes, reps int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	for rep := 0; rep < reps; rep++ {
		base := tg.phase()
		for r := 0; r < n; r++ {
			for p := 0; p < n; p++ {
				if p == r {
					continue
				}
				progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: p, Bytes: bytes, MTag: base + r})
			}
		}
		for r := 0; r < n; r++ {
			for p := 0; p < n; p++ {
				if p == r {
					continue
				}
				progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: p, MTag: base + p})
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("imb-alltoall-%d", n), Ranks: n, Programs: progs}
}

func refAllreduceRing(n, bytes, reps int, tg *tagger) *Trace {
	if tg == nil {
		tg = &tagger{}
	}
	progs := make([][]netsim.Op, n)
	if n == 1 {
		return &Trace{Name: "allreduce", Ranks: 1, Programs: progs}
	}
	chunk := bytes / n
	if chunk < 1 {
		chunk = 1
	}
	for rep := 0; rep < reps; rep++ {
		for phase := 0; phase < 2*(n-1); phase++ {
			base := tg.phase()
			for r := 0; r < n; r++ {
				nxt := (r + 1) % n
				prv := (r - 1 + n) % n
				progs[r] = append(progs[r],
					netsim.Op{Kind: netsim.OpSend, Peer: nxt, Bytes: chunk, MTag: base + r},
					netsim.Op{Kind: netsim.OpRecv, Peer: prv, MTag: base + prv},
				)
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("allreduce-%dB", bytes), Ranks: n, Programs: progs}
}

func refHaloExchange2D(n, haloBytes, iters int, compute netsim.Time) *Trace {
	px, py := grid2D(n)
	var tg tagger
	progs := make([][]netsim.Op, n)
	rankAt := func(x, y int) int { return y*px + x }
	for it := 0; it < iters; it++ {
		base := tg.phase()
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				r := rankAt(x, y)
				type nb struct{ peer, dir int }
				var nbs []nb
				if x > 0 {
					nbs = append(nbs, nb{rankAt(x-1, y), 0})
				}
				if x < px-1 {
					nbs = append(nbs, nb{rankAt(x+1, y), 1})
				}
				if y > 0 {
					nbs = append(nbs, nb{rankAt(x, y-1), 2})
				}
				if y < py-1 {
					nbs = append(nbs, nb{rankAt(x, y+1), 3})
				}
				for _, v := range nbs {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: v.peer, Bytes: haloBytes, MTag: base + r*8 + v.dir})
				}
				for _, v := range nbs {
					// The matching tag is the neighbour's send toward us:
					// direction is mirrored (0<->1, 2<->3).
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: v.peer, MTag: base + v.peer*8 + (v.dir ^ 1)})
				}
				if compute > 0 {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: compute})
				}
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("minighost-%d", n), Ranks: n, Programs: progs}
}

func refMiniGhost(n int) *Trace {
	t := refHaloExchange2D(n, 256*1024, 40, 2*netsim.Millisecond)
	t.Name = fmt.Sprintf("miniGhost-%d", n)
	return t
}

func refHPCG(n int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	const iters = 30
	for it := 0; it < iters; it++ {
		// Halo exchange (SpMV): re-generate with fresh tags.
		sweep := refHaloExchange2D(n, 64*1024, 1, 0)
		shift := tg.phase() * 16
		for r := 0; r < n; r++ {
			for _, op := range sweep.Programs[r] {
				op.MTag += shift
				progs[r] = append(progs[r], op)
			}
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: 3 * netsim.Millisecond})
		}
		// Two dot-product allreduces.
		for d := 0; d < 2; d++ {
			ar := refAllreduceRing(n, 64, 1, &tg)
			for r := 0; r < n; r++ {
				progs[r] = append(progs[r], ar.Programs[r]...)
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("HPCG-%d", n), Ranks: n, Programs: progs}
}

func refHPL(n int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	const steps = 24
	const panel0 = 2 << 20
	for k := 0; k < steps; k++ {
		root := k % n
		frac := float64(steps-k) / float64(steps)
		bytes := int(float64(panel0) * frac * frac)
		if bytes < 1024 {
			bytes = 1024
		}
		base := tg.phase()
		// Ring broadcast from root: receive from the previous rank,
		// then forward to the next.
		if n > 1 {
			for off := 0; off < n; off++ {
				r := (root + off) % n
				if off > 0 {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: (root + off - 1) % n, MTag: base + off - 1})
				}
				if off < n-1 {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: (root + off + 1) % n, Bytes: bytes, MTag: base + off})
				}
			}
		}
		// Trailing update compute scales with remaining matrix.
		dur := netsim.Time(float64(6*netsim.Millisecond) * frac * frac)
		for r := 0; r < n; r++ {
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: dur})
		}
	}
	return &Trace{Name: fmt.Sprintf("HPL-%d", n), Ranks: n, Programs: progs}
}

func refMiniFE(n int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	const iters = 20
	for it := 0; it < iters; it++ {
		sweep := refHaloExchange2D(n, 128*1024, 1, 0)
		shift := tg.phase() * 16
		for r := 0; r < n; r++ {
			for _, op := range sweep.Programs[r] {
				op.MTag += shift
				progs[r] = append(progs[r], op)
			}
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: 4 * netsim.Millisecond})
		}
		for d := 0; d < 3; d++ {
			ar := refAllreduceRing(n, 64, 1, &tg)
			for r := 0; r < n; r++ {
				progs[r] = append(progs[r], ar.Programs[r]...)
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("miniFE-%d", n), Ranks: n, Programs: progs}
}

func refIMBAlltoall(n int) *Trace {
	t := refAlltoall(n, 128*1024, 12)
	t.Name = fmt.Sprintf("IMB-Alltoall-%d", n)
	return t
}
