package core

import (
	"context"
	"testing"

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
		{Topo: g, Trace: tr, Mode: Simulator},
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
