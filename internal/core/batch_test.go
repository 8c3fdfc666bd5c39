package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/controller"
	"repro/internal/routing"
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
			if got[i].ACT != want[i].ACT ||
				got[i].Drops != want[i].Drops || got[i].Deploy != want[i].Deploy ||
				got[i].Events != want[i].Events {
				t.Errorf("workers=%d job %d: got %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentRunsShareFreshDeployment runs scenarios of one topology
// side by side over a route set nothing has read yet, four Runs and a
// two-worker Sweep at once: SDT runs, once on a testbed whose
// controller has just deployed the topology (Deploy builds no FIB) and
// once on a testbed where the first run deploys it, and full-testbed
// runs over one routing.Fixed set. Every run must give the serial
// result; under -race (CI's race step runs this package) a run that
// races another on the route set's first index or FIB build fails the
// test.
func TestConcurrentRunsShareFreshDeployment(t *testing.T) {
	g := topology.FatTree(4)
	sdt := Scenario{Topo: g, Trace: workload.Alltoall(6, 16*1024, 1), Mode: SDT}
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
	routes, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	fixed := sdt
	fixed.Mode, fixed.Strategy = FullTestbed, routing.Fixed{Routes: routes}
	cases := []struct {
		name string
		tb   *Testbed
		sc   Scenario
		deps int // deployments on tb afterwards
	}{
		{"deployed", mk(true), sdt, 1},
		{"undeployed", mk(false), sdt, 1},
		{"fixed", mk(false), fixed, 0},
	}
	for _, c := range cases {
		// The serial run computes a route set of its own.
		ref := c.sc
		ref.Strategy = nil
		want, err := Run(context.Background(), mk(false), ref)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 4
		got := make([]*RunResult, runs)
		errs := make([]error, runs+1)
		var swept []*RunResult
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Run(context.Background(), c.tb, c.sc)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := []Job{{TB: c.tb, Scenario: c.sc}, {TB: c.tb, Scenario: c.sc}}
			swept, errs[runs] = Sweep(context.Background(), jobs, WithWorkers(2))
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: run %d: %v", c.name, i, err)
			}
		}
		for i, res := range append(got, swept...) {
			if res.ACT != want.ACT || res.Events != want.Events || res.Deploy != want.Deploy {
				t.Errorf("%s: run %d: got %+v, want %+v", c.name, i, res, want)
			}
		}
		if n := len(c.tb.Ctl.Deployments()); n != c.deps {
			t.Errorf("%s: %d deployments, want %d", c.name, n, c.deps)
		}
	}
}
