package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/controller"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestRunBatchMatchesSerialRuns checks that a Sweep batch produces the
// same deterministic results as direct serial Run calls, at several
// worker counts and across all three modes.
func TestRunBatchMatchesSerialRuns(t *testing.T) {
	g := topology.FatTree(4)
	tr := workload.Alltoall(6, 32*1024, 2)
	scs := []Scenario{
		{Topo: g, Trace: tr, Mode: FullTestbed},
		{Topo: g, Trace: tr, Mode: SDT},
		{Topo: g, Trace: tr, Mode: FullTestbed},
		{Topo: g, Trace: tr, Mode: SDT},
	}
	mk := func() *Testbed {
		tb, err := PaperTestbed([]*topology.Graph{g})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	var want []*RunResult
	tbRef := mk()
	for _, sc := range scs {
		r, err := Run(context.Background(), tbRef, sc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	for _, workers := range []int{1, 4} {
		tb := mk()
		jobs := make([]Job, len(scs))
		for i, sc := range scs {
			jobs[i] = Job{TB: tb, Scenario: sc}
		}
		got, err := Sweep(context.Background(), jobs, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i := range got {
			if got[i].ACT != want[i].ACT || got[i].Mode != want[i].Mode ||
				got[i].Drops != want[i].Drops || got[i].Deploy != want[i].Deploy ||
				got[i].Events != want[i].Events {
				t.Errorf("workers=%d job %d: got %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentRunsShareFreshDeployment runs SDT scenarios of one
// topology side by side, with no Sweep to set them up: once on a
// testbed whose controller has just deployed the topology (Deploy
// builds no FIB) and once on a testbed where the first run deploys it.
// Every run must give the serial result; under -race (CI's race step
// runs this package) a run that reads the shared route set's lazily
// built FIB or index while another builds it fails the test.
func TestConcurrentRunsShareFreshDeployment(t *testing.T) {
	g := topology.FatTree(4)
	sc := Scenario{Topo: g, Trace: workload.Alltoall(6, 16*1024, 1), Mode: SDT}
	mk := func(deploy bool) *Testbed {
		tb, err := PaperTestbed([]*topology.Graph{g})
		if err != nil {
			t.Fatal(err)
		}
		if deploy {
			if _, err := tb.Ctl.Deploy(g, controller.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	want, err := Run(context.Background(), mk(false), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, deployed := range []bool{true, false} {
		tb := mk(deployed)
		const runs = 4
		got := make([]*RunResult, runs)
		errs := make([]error, runs)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Run(context.Background(), tb, sc)
			}()
		}
		wg.Wait()
		for i := range runs {
			if errs[i] != nil {
				t.Fatalf("deployed=%v run %d: %v", deployed, i, errs[i])
			}
			if got[i].ACT != want.ACT || got[i].Events != want.Events || got[i].Deploy != want.Deploy {
				t.Errorf("deployed=%v run %d: got %+v, want %+v", deployed, i, got[i], want)
			}
		}
		if n := len(tb.Ctl.Deployments()); n != 1 {
			t.Errorf("deployed=%v: %d deployments, want 1", deployed, n)
		}
	}
}
