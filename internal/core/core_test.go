package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestModeString(t *testing.T) {
	if FullTestbed.String() != "Full Testbed" || SDT.String() != "SDT" || Simulator.String() != "Simulator" {
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
	for _, mode := range []Mode{FullTestbed, SDT, Simulator} {
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
		acts = append(acts, res.ACT)
		switch mode {
		case FullTestbed:
			if res.Eval != time.Duration(int64(res.ACT)/1000) {
				t.Errorf("full-testbed eval %v != ACT %v", res.Eval, res.ACT)
			}
		case SDT:
			if res.Deploy <= 0 {
				t.Error("SDT run has no deploy time")
			}
			if res.Eval <= time.Duration(int64(res.ACT)/1000) {
				t.Error("SDT eval must exceed bare ACT")
			}
		case Simulator:
			if res.Eval != res.Wall {
				t.Errorf("simulator eval %v != wall %v", res.Eval, res.Wall)
			}
		}
	}
	// Full testbed and simulator model identical fabrics -> same ACT;
	// SDT adds a small positive overhead.
	if acts[0] != acts[2] {
		t.Errorf("full %v != simulator %v ACT", acts[0], acts[2])
	}
	if acts[1] <= acts[0] {
		t.Errorf("SDT ACT %v <= full %v; projection overhead missing", acts[1], acts[0])
	}
	over := float64(acts[1]-acts[0]) / float64(acts[0])
	if over > 0.03 {
		t.Errorf("SDT ACT overhead %.4f too large", over)
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

func TestRunTraceRejectsTooManyRanks(t *testing.T) {
	g := topology.Line(2, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Alltoall(8, 1024, 1)
	if _, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Mode: FullTestbed}); err == nil {
		t.Error("8 ranks on 2 hosts accepted")
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
