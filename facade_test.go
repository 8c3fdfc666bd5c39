// Facade test: exercises the library strictly through the public API
// in the root package, as a downstream user would.
package sdt_test

import (
	"context"
	"errors"
	"testing"

	sdt "repro"
)

// TestFacadeRunAndSweep drives the composable execution surface — Run
// with a Scenario plus options, and a Sweep over jobs — exactly as a
// downstream caller would.
func TestFacadeRunAndSweep(t *testing.T) {
	topo := sdt.FatTree(4)
	tb, err := sdt.PaperTestbed([]*sdt.Topology{topo})
	if err != nil {
		t.Fatal(err)
	}
	col := sdt.NewTelemetryCollector(topo, 100*sdt.Microsecond, 0)
	var finished *sdt.RunResult
	res, err := sdt.Run(t.Context(), tb, sdt.Scenario{
		Topo:  topo,
		Trace: sdt.AlltoallTrace(4, 32<<10, 2),
		Mode:  sdt.ModeSDT,
	},
		sdt.WithTelemetry(col),
		sdt.WithObserver(sdt.RunHooks{
			Finish: func(r *sdt.RunResult, _ *sdt.Network) { finished = r },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.ACT <= 0 {
		t.Fatalf("ACT = %v", res.ACT)
	}
	if finished != res {
		t.Error("Finish hook did not receive the run result")
	}
	if col.Epochs() == 0 {
		t.Error("telemetry observer took no samples")
	}

	jobs := []sdt.Job{
		{TB: tb, Scenario: sdt.Scenario{Topo: topo, Trace: sdt.AlltoallTrace(4, 16<<10, 2), Mode: sdt.ModeFullTestbed}},
		{TB: tb, Scenario: sdt.Scenario{Topo: topo, Trace: sdt.AlltoallTrace(4, 16<<10, 2), Mode: sdt.ModeSDT}},
	}
	results, err := sdt.Sweep(t.Context(), jobs, sdt.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ACT <= 0 || results[1].ACT <= 0 {
		t.Fatalf("sweep results: %+v", results)
	}
	if results[1].ACT <= results[0].ACT {
		t.Errorf("SDT ACT %v <= full-testbed ACT %v; projection overhead missing", results[1].ACT, results[0].ACT)
	}

	// A cancelled context surfaces as ctx.Err().
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := sdt.Run(ctx, tb, jobs[0].Scenario); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Run: err = %v, want context.Canceled", err)
	}
}

// TestFacadeFlowFidelity runs one open-loop schedule at both
// fidelities through the facade: the flow-level run completes every
// flow, and the same Scenario field selects the engine per Sweep job.
func TestFacadeFlowFidelity(t *testing.T) {
	topo := sdt.FatTree(4)
	tb, err := sdt.PaperTestbed([]*sdt.Topology{topo})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() []sdt.Flow {
		return sdt.LoadSpec{
			Ranks: 8, Load: 0.5, Flows: 64,
			Pattern: sdt.PatternUniform(), Sizes: sdt.WebSearchSizes(),
			Seed: 3,
		}.MustGenerate().Flows
	}
	for _, fid := range []sdt.Fidelity{sdt.FidelityPacket, sdt.FidelityFlow} {
		flows := gen()
		if _, err := sdt.Run(t.Context(), tb, sdt.Scenario{
			Topo: topo, Flows: flows, Fidelity: fid,
		}); err != nil {
			t.Fatal(err)
		}
		fct := sdt.MeasureFCT(flows, 10e9, 0, nil)
		if fct.Completed != fct.Total || fct.Total != 64 {
			t.Fatalf("%s-fidelity run completed %d/%d flows", fid, fct.Completed, fct.Total)
		}
	}

	// A Sweep job carries its fidelity like any other result knob.
	results, err := sdt.Sweep(t.Context(),
		[]sdt.Job{{TB: tb, Scenario: sdt.Scenario{Topo: topo, Flows: gen(), Fidelity: sdt.FidelityFlow}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Events <= 0 {
		t.Fatalf("sweep results: %+v", results)
	}

	// Flow fidelity rejects what it cannot simulate — loudly, not
	// silently at packet level.
	if _, err := sdt.Run(t.Context(), tb, sdt.Scenario{
		Topo: topo, Trace: sdt.AlltoallTrace(4, 16<<10, 2),
		Fidelity: sdt.FidelityFlow,
	}); err == nil {
		t.Fatal("flow fidelity accepted a closed-loop trace")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	ft := sdt.FatTree(4)
	torus := sdt.Torus2D(4, 4, 1)
	tb, err := sdt.PaperTestbed([]*sdt.Topology{ft, torus})
	if err != nil {
		t.Fatal(err)
	}
	// Run a small alltoall in both modes.
	tr := sdt.AlltoallTrace(4, 16<<10, 2)
	for _, mode := range []sdt.Mode{sdt.ModeFullTestbed, sdt.ModeSDT} {
		res, err := sdt.Run(t.Context(), tb, sdt.Scenario{Topo: ft, Trace: tr, Hosts: ft.Hosts()[:4], Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.ACT <= 0 {
			t.Fatalf("%v: ACT %v", mode, res.ACT)
		}
	}
	// Reconfigure via the controller.
	if _, err := tb.Ctl.Reconfigure(ft.Name, torus, sdt.ControllerOptions{RequireDeadlockFree: true}); err != nil {
		t.Fatal(err)
	}
	if tb.Ctl.Deployment(torus.Name) == nil {
		t.Fatal("torus not deployed after reconfigure")
	}
}

func TestFacadeStrategyAndDeadlock(t *testing.T) {
	g := sdt.Dragonfly(4, 9, 2, 1)
	strat := sdt.StrategyFor(g)
	routes, err := strat.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdt.VerifyDeadlockFree(routes); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProjection(t *testing.T) {
	g := sdt.Line(6, 1)
	cab, err := sdt.PlanCabling([]sdt.PhysicalSwitch{sdt.H3CS6861("sw")}, []*sdt.Topology{g}, sdt.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sdt.Project(g, cab, sdt.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatal(err)
	}
	if plan.Stats().SelfLinks != 5 {
		t.Errorf("self links = %d, want 5", plan.Stats().SelfLinks)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	for _, name := range []string{"HPCG", "HPL", "miniGhost", "miniFE", "IMB"} {
		tr, err := sdt.WorkloadByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if sdt.PingpongTrace(64, 3).Ranks != 2 {
		t.Error("pingpong ranks")
	}
}

func TestFacadeZooAndConfig(t *testing.T) {
	zoo := sdt.TopologyZoo(1)
	if len(zoo) != 261 {
		t.Fatalf("zoo = %d", len(zoo))
	}
	cfg := sdt.TopologyConfig{Name: "t", Generator: "torus2d", Params: []int{3, 3, 1}}
	g, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSwitches() != 9 {
		t.Errorf("switches = %d", g.NumSwitches())
	}
}
