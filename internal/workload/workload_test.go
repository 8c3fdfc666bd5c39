package workload

import (
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
		AllreduceRing(8, 64*1024, 2, nil),
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
