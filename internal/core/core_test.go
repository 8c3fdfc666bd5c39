package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestModeString(t *testing.T) {
	if FullTestbed.String() != "Full Testbed" || SDT.String() != "SDT" {
		t.Error("mode names")
	}
}

func TestRunTraceAllModes(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Alltoall(8, 32*1024, 2)
	var acts []netsim.Time
	for _, mode := range []Mode{FullTestbed, SDT} {
		res, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.ACT <= 0 {
			t.Fatalf("%s: ACT = %v", mode, res.ACT)
		}
		if res.Drops != 0 {
			t.Errorf("%s: %d drops on lossless fabric", mode, res.Drops)
		}
		if res.Wall <= 0 {
			t.Errorf("%s: no wall clock recorded", mode)
		}
		acts = append(acts, res.ACT)
		switch mode {
		case FullTestbed:
			if res.Deploy != 0 {
				t.Errorf("full-testbed run carries deploy time %v", res.Deploy)
			}
		case SDT:
			if res.Deploy <= 0 {
				t.Error("SDT run has no deploy time")
			}
		}
	}
	// SDT adds a small positive overhead over the full testbed.
	if acts[1] <= acts[0] {
		t.Errorf("SDT ACT %v <= full %v; projection overhead missing", acts[1], acts[0])
	}
	over := float64(acts[1]-acts[0]) / float64(acts[0])
	if over > 0.03 {
		t.Errorf("SDT ACT overhead %.4f too large", over)
	}
}

// TestCrossbarModelPinned pins the two SDT-only terms of the fabric
// model on a fattree-k4 all-to-all over every host: the crossbar one
// physical switch's sub-switches share (Config.CrossbarBps, one FIFO
// server) and the per-hop pipeline extra (Config.SDTPerHopExtra).
// With both on, SDT is 10.44 % slower than the full testbed; with both
// neutralised the two modes give one ACT, so nothing else about
// projection changes the physics here. A change to the crossbar model
// moves these numbers and has to be made on purpose (DESIGN.md,
// "Evaluation modes").
func TestCrossbarModelPinned(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Alltoall(16, 32*1024, 2)
	neutral := tb.Cfg
	neutral.CrossbarBps = math.Inf(1)
	neutral.SDTPerHopExtra = 0
	for _, c := range []struct {
		name string
		mode Mode
		cfg  *netsim.Config
		want netsim.Time
	}{
		{"full testbed", FullTestbed, nil, 884_897_075},
		{"SDT", SDT, nil, 977_317_750},
		{"full testbed, terms neutralised", FullTestbed, &neutral, 884_324_800},
		{"SDT, terms neutralised", SDT, &neutral, 884_324_800},
	} {
		res, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Mode: c.mode, SimConfig: c.cfg})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.ACT != c.want {
			t.Errorf("%s: ACT = %d ps, want %d", c.name, res.ACT, c.want)
		}
	}
}

func TestRunTraceSDTReusesDeployment(t *testing.T) {
	g := topology.Line(4, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Pingpong(1024, 5)
	hosts := g.Hosts()[:2]
	sc := Scenario{Topo: g, Trace: tr, Hosts: hosts, Mode: SDT}
	if _, err := Run(context.Background(), tb, sc); err != nil {
		t.Fatal(err)
	}
	// Second run must reuse the deployment, not fail on "already deployed".
	if _, err := Run(context.Background(), tb, sc); err != nil {
		t.Fatalf("second SDT run: %v", err)
	}
	if len(tb.Ctl.Deployments()) != 1 {
		t.Errorf("deployments = %d", len(tb.Ctl.Deployments()))
	}
}

// TestRunTraceRejectsTooManyRanks: a trace that needs more hosts than
// the topology has, or that is malformed (no rank, or a program count
// other than its rank count), fails validation instead of panicking.
func TestRunTraceRejectsTooManyRanks(t *testing.T) {
	g := topology.Line(2, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	two := workload.Alltoall(2, 1024, 1)
	for _, c := range []struct {
		name string
		tr   *workload.Trace
	}{
		{"8 ranks on 2 hosts", workload.Alltoall(8, 1024, 1)},
		{"no rank", &workload.Trace{Name: "empty"}},
		{"negative ranks", &workload.Trace{Name: "negative", Ranks: -1}},
		{"more programs than ranks", &workload.Trace{Name: "extra", Ranks: 1, Programs: two.Programs}},
		{"fewer programs than ranks", &workload.Trace{Name: "missing", Ranks: 2, Programs: two.Programs[:1]}},
	} {
		if _, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: c.tr, Mode: FullTestbed}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestRunTraceOnMoreHostsThanRanks: a trace placed on a host list longer
// than its rank count runs on the first hosts of the list, as a Flows
// scenario does.
func TestRunTraceOnMoreHostsThanRanks(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Alltoall(8, 16*1024, 1)
	want, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Hosts: g.Hosts()[:8]})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Hosts: g.Hosts()})
	if err != nil {
		t.Fatal(err)
	}
	if got.ACT != want.ACT || got.Events != want.Events {
		t.Errorf("all hosts: got %+v, want %+v", got, want)
	}
}

func TestPickSpread(t *testing.T) {
	all := []int{10, 11, 12, 13, 14, 15, 16, 17}
	got := PickSpread(all, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != 10 || got[3] != 16 {
		t.Errorf("spread = %v", got)
	}
	// Determinism.
	again := PickSpread(all, 4)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("PickSpread not deterministic")
		}
	}
}

func TestNetworkModeWiring(t *testing.T) {
	g := topology.Torus2D(4, 4, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	full, dep, err := tb.Network(g, nil, FullTestbed)
	if err != nil {
		t.Fatal(err)
	}
	if dep != nil {
		t.Error("full testbed returned a deployment")
	}
	if full == nil {
		t.Fatal("nil network")
	}
	sdtNet, dep, err := tb.Network(g, nil, SDT)
	if err != nil {
		t.Fatal(err)
	}
	if dep == nil {
		t.Fatal("SDT mode without deployment")
	}
	if sdtNet == nil {
		t.Fatal("nil network")
	}
	if err := dep.Plan.Check(); err != nil {
		t.Error(err)
	}
}
