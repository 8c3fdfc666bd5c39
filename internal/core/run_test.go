package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestRunCancelledBeforeStart: a context that is already done yields
// ctx.Err() without simulating anything.
func TestRunCancelledBeforeStart(t *testing.T) {
	g := topology.Line(4, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, tb, Scenario{Topo: g, Trace: workload.Pingpong(1024, 5), Mode: FullTestbed})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelMidSimulation cancels deterministically from inside the
// simulation (an observer tick) and checks that the run returns
// ctx.Err() with events still queued (a stopped, not drained, run) —
// i.e. cancellation landed mid-simulation. The precise
// stops-within-one-stride bound is pinned deterministically in
// internal/engine's TestRunStopsWithinStride; here the flag is raised
// by the watcher goroutine, so the test sleeps briefly after cancel to
// let it land.
func TestRunCancelMidSimulation(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	// A workload big enough that it cannot finish within one stride of
	// the first tick.
	tr := workload.Alltoall(8, 256*1024, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var net *netsim.Network
	cancelled := false
	_, err = Run(ctx, tb, Scenario{Topo: g, Trace: tr, Mode: FullTestbed},
		WithObserver(Hooks{
			Start:  func(n *netsim.Network, _ Scenario) { net = n },
			Period: 100 * netsim.Microsecond,
			Tick: func(_ netsim.Time, n *netsim.Network) {
				if !cancelled {
					cancelled = true
					cancel()
					// Give the watcher goroutine time to raise the stop
					// flag before the engine's next stride check.
					time.Sleep(50 * time.Millisecond)
				}
			},
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !cancelled {
		t.Fatal("observer tick never fired")
	}
	if net.Sim.Events() == 0 {
		t.Error("engine fired no events; the run never started")
	}
	if net.Sim.Pending() == 0 {
		t.Error("event queue drained; the run completed instead of being cancelled (cancellation did not land mid-simulation)")
	}
}

// TestSweepCancelled: cancelling a sweep from inside a job's run stops
// the whole sweep with ctx.Err(); exercised at several worker counts
// (CI runs this package under -race, covering the concurrent path).
func TestSweepCancelled(t *testing.T) {
	g := topology.FatTree(4)
	tr := workload.Alltoall(8, 128*1024, 4)
	for _, workers := range []int{1, 4} {
		tb, err := PaperTestbed([]*topology.Graph{g})
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i] = Job{TB: tb, Scenario: Scenario{Topo: g, Trace: tr, Mode: FullTestbed}}
		}
		ctx, cancel := context.WithCancel(context.Background())
		// The observer runs in every worker's simulation concurrently;
		// cancel is safe to call from all of them.
		_, err = Sweep(ctx, jobs,
			WithWorkers(workers),
			WithObserver(Hooks{
				Period: 100 * netsim.Microsecond,
				Tick:   func(netsim.Time, *netsim.Network) { cancel() },
			}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestRunSimConfigOverride: Scenario.SimConfig applies to one run
// without mutating the testbed's default.
func TestRunSimConfigOverride(t *testing.T) {
	g := topology.Line(8, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Pingpong(4096, 10)
	base, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Mode: FullTestbed})
	if err != nil {
		t.Fatal(err)
	}
	slow := tb.Cfg
	slow.CutThrough = false
	over, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Mode: FullTestbed, SimConfig: &slow})
	if err != nil {
		t.Fatal(err)
	}
	if over.ACT <= base.ACT {
		t.Errorf("store-and-forward ACT %v <= cut-through ACT %v", over.ACT, base.ACT)
	}
	if !tb.Cfg.CutThrough {
		t.Error("Scenario.SimConfig mutated the testbed default")
	}
	again, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Mode: FullTestbed})
	if err != nil {
		t.Fatal(err)
	}
	if again.ACT != base.ACT {
		t.Errorf("config override leaked: %v != %v", again.ACT, base.ACT)
	}
}

// TestRunTelemetryObserver: WithTelemetry samples the fabric during
// the run without the manual Arm/Collect wiring.
func TestRunTelemetryObserver(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(g, 50*netsim.Microsecond, 0)
	res, err := Run(context.Background(), tb, Scenario{
		Topo: g, Trace: workload.Alltoall(8, 64*1024, 4), Mode: FullTestbed,
	}, WithTelemetry(col))
	if err != nil {
		t.Fatal(err)
	}
	if res.ACT <= 0 {
		t.Fatalf("ACT = %v", res.ACT)
	}
	if col.Epochs() == 0 {
		t.Error("telemetry collector took no samples during the run")
	}
	if len(col.Series()) == 0 {
		t.Error("telemetry collector recorded no link series")
	}
}

// TestRunStuckWorkloadWithObserverStillErrors: a workload that can
// never complete (a receive nobody answers) must return the
// did-not-complete error even with observers attached — the tick
// chains disarm once the fabric is quiescent instead of rescheduling
// themselves forever.
func TestRunStuckWorkloadWithObserverStillErrors(t *testing.T) {
	g := topology.Line(4, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	stuck := &workload.Trace{
		Name:  "stuck",
		Ranks: 2,
		Programs: [][]netsim.Op{
			{{Kind: netsim.OpRecv, Peer: 1, MTag: 7}}, // rank 1 never sends tag 7
			{{Kind: netsim.OpCompute, Dur: netsim.Microsecond}},
		},
	}
	ticks := 0
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: stuck, Mode: FullTestbed},
			WithObserver(Hooks{
				Period: 10 * netsim.Microsecond,
				Tick:   func(netsim.Time, *netsim.Network) { ticks++ },
			}))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "did not complete") {
			t.Fatalf("err = %v, want did-not-complete", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung on a stuck workload with an observer attached")
	}
	if ticks == 0 {
		t.Error("observer never ticked")
	}
	if ticks > 10 {
		t.Errorf("observer ticked %d times on a quiescent fabric; chains did not disarm", ticks)
	}
}

// TestSweepSharedTelemetryCollector: one collector shared across a
// sweep's runs — including concurrent ones (this package runs under
// -race in CI) — aggregates cleanly: per-network baselines keep the
// cumulative-counter deltas non-negative even though each fresh
// network restarts its counters at zero.
func TestSweepSharedTelemetryCollector(t *testing.T) {
	g := topology.FatTree(4)
	tr := workload.Alltoall(6, 32*1024, 2)
	for _, workers := range []int{1, 4} {
		tb, err := PaperTestbed([]*topology.Graph{g})
		if err != nil {
			t.Fatal(err)
		}
		col := telemetry.NewCollector(g, 50*netsim.Microsecond, 0)
		jobs := make([]Job, 4)
		for i := range jobs {
			jobs[i] = Job{TB: tb, Scenario: Scenario{Topo: g, Trace: tr, Mode: FullTestbed}}
		}
		if _, err := Sweep(context.Background(), jobs, WithWorkers(workers), WithTelemetry(col)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if col.Epochs() == 0 {
			t.Fatalf("workers=%d: no samples", workers)
		}
		for _, s := range col.Series() {
			for _, b := range s.Bytes {
				if b < 0 {
					t.Fatalf("workers=%d: negative delta %d on edge %d (baseline leaked across runs)",
						workers, b, s.EdgeID)
				}
			}
		}
	}
}

// TestPickSpreadOverflow is the regression test for the n > len(all)
// panic: asking for more hosts than exist returns the whole list.
func TestPickSpreadOverflow(t *testing.T) {
	all := []int{3, 5, 7}
	for _, n := range []int{3, 4, 100} {
		got := PickSpread(all, n)
		if len(got) != len(all) {
			t.Fatalf("PickSpread(%v, %d) = %v, want the whole list", all, n, got)
		}
		for i := range all {
			if got[i] != all[i] {
				t.Fatalf("PickSpread(%v, %d) = %v", all, n, got)
			}
		}
	}
}
