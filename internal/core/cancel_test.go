package core

// The cancellation contract (documented on Run and Sweep): a cancelled
// Run never returns a partial RunResult, while an errored Sweep — be
// the cause a context or a job failure — returns the partial results
// slice with non-nil entries exactly at the completed jobs. Before
// this contract was pinned, callers had to infer partial-result
// behaviour from ctx.Err(); the service layer's drain path relies on
// the slice to salvage finished work.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestCancelContractRun: a cancelled Run returns (nil, ctx.Err()),
// never a half-populated RunResult.
func TestCancelContractRun(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, tb, Scenario{Topo: g, Trace: workload.Alltoall(8, 256*1024, 8), Mode: FullTestbed},
		WithObserver(Hooks{
			Period: 100 * netsim.Microsecond,
			Tick: func(netsim.Time, *netsim.Network) {
				cancel()
				// Let the watcher goroutine raise the engine stop flag
				// before the next stride check.
				time.Sleep(20 * time.Millisecond)
			},
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled Run returned a partial result: %+v", res)
	}
}

// TestCancelContractSweep: a sweep cancelled mid-batch returns the
// partial slice — completed jobs keep their results, the cancelled and
// never-started jobs stay nil.
func TestCancelContractSweep(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Alltoall(4, 16*1024, 2)
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{TB: tb, Scenario: Scenario{Topo: g, Trace: tr, Mode: FullTestbed}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 2 // cancel while the third job is starting
	started := 0
	out, err := Sweep(ctx, jobs, WithWorkers(1), WithObserver(Hooks{
		Start: func(*netsim.Network, Scenario) {
			if started++; started == cancelAt+1 {
				cancel()
				time.Sleep(20 * time.Millisecond)
			}
		},
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("partial slice has %d entries, want %d", len(out), len(jobs))
	}
	for i, r := range out {
		if i < cancelAt && r == nil {
			t.Errorf("job %d completed before the cancel but its result is nil", i)
		}
		if i >= cancelAt && r != nil {
			t.Errorf("job %d ran after the cancel yet has a result", i)
		}
	}
}

// TestCancelContractSweepError: a non-context job failure surfaces the
// same partial-results shape.
func TestCancelContractSweepError(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Alltoall(4, 16*1024, 2)
	jobs := []Job{
		{TB: tb, Scenario: Scenario{Topo: g, Trace: tr, Mode: FullTestbed}},
		{TB: tb, Scenario: Scenario{Topo: g, Trace: tr, Mode: FullTestbed}},
		{TB: tb, Scenario: Scenario{Topo: g, Mode: FullTestbed}}, // no workload: fails
		{TB: tb, Scenario: Scenario{Topo: g, Trace: tr, Mode: FullTestbed}},
	}
	out, err := Sweep(context.Background(), jobs, WithWorkers(1))
	if err == nil {
		t.Fatal("sweep with an invalid job succeeded")
	}
	if len(out) != len(jobs) {
		t.Fatalf("partial slice has %d entries, want %d", len(out), len(jobs))
	}
	if out[0] == nil || out[1] == nil {
		t.Error("jobs before the failure lost their results")
	}
	if out[2] != nil || out[3] != nil {
		t.Error("failed or unstarted jobs carry results")
	}
	// Preflight failures (no job ran) keep returning a nil slice.
	if out2, err2 := Sweep(context.Background(), []Job{{}}); err2 == nil || out2 != nil {
		t.Errorf("preflight failure: out=%v err=%v, want nil slice + error", out2, err2)
	}
}
