package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/projection"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// reconfigFixture builds a testbed cabled for both a fat-tree and a
// torus, a seeded uniform flow schedule on the fat-tree, and a spec
// transitioning to the torus across the middle of the injection window.
func reconfigFixture(t *testing.T, seed int64) (*Testbed, *topology.Graph, *loadgen.FlowSet, *reconfig.Spec) {
	t.Helper()
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	tb, err := PaperTestbed([]*topology.Graph{g, target})
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.DefaultConfig()
	fs, err := loadgen.Spec{
		Ranks: 16, Pattern: loadgen.Uniform(), Sizes: loadgen.FixedSize(64 << 10),
		Load: 0.5, Flows: 200, Seed: seed, LinkBps: cfg.LinkBps,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	window := fs.Flows[len(fs.Flows)-1].Start
	spec := &reconfig.Spec{
		Transitions: []reconfig.Transition{{
			At: window / 2, Target: target,
			Drain: window / 8, Install: window / 8,
		}},
		PatchLatency: window / 32,
	}
	return tb, g, fs, spec
}

// reconfigDigest renders every determinism-relevant field of a
// reconfiguration run result.
func reconfigDigest(res *RunResult) string {
	s := fmt.Sprintf("act=%d drops=%d faultdrops=%d incomplete=%d pauses=%d events=%d\n",
		res.ACT, res.Drops, res.FaultDrops, res.Incomplete, res.Pauses, res.Events)
	for i := range res.Reconfig {
		st := &res.Reconfig[i]
		s += fmt.Sprintf("%s outcome=%q drain=%d links=%d patch=%d pchurn=%d decide=%d restore=%d rchurn=%d deliv=%d lost=%d entries=%d rt=%d hw=%.0f\n",
			st.Desc, st.Outcome, st.DrainAt, len(st.Drained), st.PatchAt, st.PatchChurn,
			st.CommitAt, st.RestoreAt, st.RestoreChurn, st.FirstDeliveryAfter, st.Lost,
			st.Entries, int64(st.ReconfigTime), st.HardwareCost)
	}
	return s
}

// TestReconfigRunDeterministic: equal seeds reproduce every byte of a
// reconfiguration run — ACT, drain-window losses, per-transition
// protocol timestamps, churn, cost columns, and per-flow completions.
func TestReconfigRunDeterministic(t *testing.T) {
	var digests []string
	var flowEnds [][]netsim.Time
	for rep := 0; rep < 2; rep++ {
		tb, g, fs, spec := reconfigFixture(t, 7)
		res, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: fs.Flows, Reconfig: spec})
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultDrops == 0 {
			t.Fatal("drain dropped nothing; the transition missed the traffic")
		}
		if len(res.Reconfig) != 1 {
			t.Fatalf("reconfig stages = %+v", res.Reconfig)
		}
		st := &res.Reconfig[0]
		if st.Outcome != reconfig.OutcomeCommitted {
			t.Fatalf("transition did not commit: %+v", st)
		}
		if st.Lost <= 0 || st.TotalChurn() == 0 {
			t.Fatalf("degradation not measured: lost=%d churn=%d", st.Lost, st.TotalChurn())
		}
		if st.Reconvergence() <= 0 {
			t.Fatalf("no reconvergence measured: %d", st.Reconvergence())
		}
		if st.Entries <= 0 || st.ReconfigTime <= 0 || st.HardwareCost <= 0 {
			t.Fatalf("cost columns missing: %+v", st)
		}
		digests = append(digests, reconfigDigest(res))
		ends := make([]netsim.Time, len(fs.Flows))
		for i := range fs.Flows {
			ends[i] = fs.Flows[i].End
		}
		flowEnds = append(flowEnds, ends)
	}
	if digests[0] != digests[1] {
		t.Fatalf("reconfig runs diverged:\n%s\nvs\n%s", digests[0], digests[1])
	}
	for i := range flowEnds[0] {
		if flowEnds[0][i] != flowEnds[1][i] {
			t.Fatalf("flow %d completion diverged: %d vs %d", i, flowEnds[0][i], flowEnds[1][i])
		}
	}
}

// TestReconfigSweepWorkerCountInvariant: the same reconfiguration jobs
// produce byte-identical results at any Sweep worker count.
func TestReconfigSweepWorkerCountInvariant(t *testing.T) {
	run := func(workers int) string {
		var out string
		var jobs []Job
		var sets []*loadgen.FlowSet
		for s := int64(1); s <= 3; s++ {
			tb, g, fs, spec := reconfigFixture(t, s)
			sets = append(sets, fs)
			jobs = append(jobs, Job{TB: tb, Scenario: Scenario{Topo: g, Flows: fs.Flows, Reconfig: spec}})
		}
		results, err := Sweep(context.Background(), jobs, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			out += reconfigDigest(res)
			for j := range sets[i].Flows {
				out += fmt.Sprintf("%d,", sets[i].Flows[j].End)
			}
			out += "\n"
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 0} {
		if got := run(workers); got != serial {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

// TestNoReconfigIdenticalToEmptySpec: a nil Reconfig field and an empty
// spec produce the same simulation byte-for-byte — the "no transitions
// => no behaviour change" contract.
func TestNoReconfigIdenticalToEmptySpec(t *testing.T) {
	run := func(spec *reconfig.Spec) (*RunResult, []netsim.Time) {
		tb, g, fs, _ := reconfigFixture(t, 5)
		res, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: fs.Flows, Reconfig: spec})
		if err != nil {
			t.Fatal(err)
		}
		ends := make([]netsim.Time, len(fs.Flows))
		for i := range fs.Flows {
			ends[i] = fs.Flows[i].End
		}
		return res, ends
	}
	plain, plainEnds := run(nil)
	empty, emptyEnds := run(&reconfig.Spec{})
	if plain.ACT != empty.ACT || plain.Drops != empty.Drops || plain.Events != empty.Events {
		t.Fatalf("empty reconfig spec changed the run: %+v vs %+v", plain, empty)
	}
	for i := range plainEnds {
		if plainEnds[i] != emptyEnds[i] {
			t.Fatalf("flow %d completion changed under an empty spec", i)
		}
	}
	if len(plain.Reconfig) != 0 || len(empty.Reconfig) != 0 {
		t.Fatalf("transition-free runs recorded stages: %+v, %+v", plain.Reconfig, empty.Reconfig)
	}
	if plain.FaultDrops != 0 || empty.FaultDrops != 0 {
		t.Fatal("transition-free runs counted drain drops")
	}
}

// TestReconfigRollbackUnderTraffic: an injected Plan.Check-stage
// failure rolls the transition back mid-run — the run completes on the
// old topology, every drained link is back up, and the report carries
// the rollback reason.
func TestReconfigRollbackUnderTraffic(t *testing.T) {
	tb, g, fs, spec := reconfigFixture(t, 7)
	injected := errors.New("injected plan-check failure")
	spec.Transitions[0].Validate = func(*projection.Plan) error { return injected }
	var downAfter int
	res, err := Run(context.Background(), tb,
		Scenario{Topo: g, Flows: fs.Flows, Reconfig: spec},
		WithObserver(Hooks{Finish: func(_ *RunResult, net *netsim.Network) {
			for eid := range g.Edges {
				if net.LinkIsDown(eid) {
					downAfter++
				}
			}
		}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reconfig) != 1 {
		t.Fatalf("reconfig stages = %+v", res.Reconfig)
	}
	st := &res.Reconfig[0]
	if !strings.HasPrefix(st.Outcome, reconfig.OutcomeRolledBack) || !strings.Contains(st.Outcome, "injected") {
		t.Fatalf("rollback not recorded: %+v", st)
	}
	if st.RestoreAt != st.CommitAt {
		t.Fatalf("rollback restored at %d, decided at %d", st.RestoreAt, st.CommitAt)
	}
	if len(st.Drained) == 0 || res.FaultDrops == 0 {
		t.Fatal("rollback fixture drained nothing")
	}
	if downAfter != 0 {
		t.Fatalf("%d links still down after rollback", downAfter)
	}
	// Open-loop flows that lost a packet in the drain window never
	// finish (no retransmit); the run itself still completes, reporting
	// them — losing every flow would mean the fabric never recovered.
	if res.ACT <= 0 || res.Incomplete >= len(fs.Flows) {
		t.Fatalf("run did not recover: act=%d incomplete=%d/%d", res.ACT, res.Incomplete, len(fs.Flows))
	}
	// The drain window is the only place a fault drop can happen.
	if st.Lost != res.FaultDrops {
		t.Fatalf("stage lost %d, the run %d", st.Lost, res.FaultDrops)
	}
}

// TestReconfigRejectedThenCommitted: a transition whose target the
// cabling cannot host is rejected at New and leaves an empty record,
// while the ones after it in the same spec commit and measure their own
// disruption — stage records stay indexed by spec order, and each
// counts only its own window's losses.
func TestReconfigRejectedThenCommitted(t *testing.T) {
	tb, g, fs, spec := reconfigFixture(t, 7)
	committing := spec.Transitions[0]
	again := committing
	again.At = committing.At + committing.Drain + committing.Install + 1
	spec.Transitions = []reconfig.Transition{
		{At: committing.At / 4, Target: topology.Dragonfly(4, 9, 2, 1), Drain: committing.Drain, Install: committing.Install},
		committing,
		again,
	}
	res, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: fs.Flows, Reconfig: spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reconfig) != 3 {
		t.Fatalf("reconfig stages = %+v", res.Reconfig)
	}
	rej := &res.Reconfig[0]
	if !strings.HasPrefix(rej.Outcome, reconfig.OutcomeRejected) || len(rej.Drained) != 0 ||
		rej.TotalChurn() != 0 || rej.Lost != 0 || rej.Reconvergence() != -1 {
		t.Fatalf("rejected stage = %+v", rej)
	}
	for _, com := range res.Reconfig[1:] {
		if com.Outcome != reconfig.OutcomeCommitted || com.Lost <= 0 || com.TotalChurn() <= 0 || com.Reconvergence() <= 0 {
			t.Fatalf("committed stage = %+v", com)
		}
	}
	if lost := res.Reconfig[1].Lost + res.Reconfig[2].Lost; lost != res.FaultDrops {
		t.Fatalf("stages lost %d in all, the run %d", lost, res.FaultDrops)
	}
}

// TestFaultsReconfigMutuallyExclusive: both subsystems swap the live
// route set mid-run, so a scenario carrying both is rejected up front.
func TestFaultsReconfigMutuallyExclusive(t *testing.T) {
	tb, g, fs, spec := reconfigFixture(t, 1)
	_, err := Run(context.Background(), tb, Scenario{
		Topo: g, Flows: fs.Flows, Reconfig: spec, Faults: &faults.Spec{},
	})
	if err == nil || !strings.Contains(err.Error(), "cannot carry both") {
		t.Fatalf("err = %v", err)
	}
}
