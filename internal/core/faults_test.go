package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// faultFixture builds a fat-tree testbed with a seeded uniform flow
// schedule and a one-link outage covering the middle half of the
// injection window.
func faultFixture(t *testing.T, seed int64) (*Testbed, *topology.Graph, *loadgen.FlowSet, *faults.Spec) {
	t.Helper()
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
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
	spec := &faults.Spec{RepairLatency: window / 16}
	// Several links at once so some carried traffic is guaranteed to be
	// in flight when the cut lands.
	for _, link := range faults.PickCoreEdges(g, 4, seed) {
		spec.Events = append(spec.Events,
			faults.Event{At: window / 4, Kind: faults.LinkDown, Elem: link},
			faults.Event{At: 3 * window / 4, Kind: faults.LinkUp, Elem: link},
		)
	}
	return tb, g, fs, spec
}

// recoveryDigest renders every determinism-relevant field of a fault
// run result.
func recoveryDigest(res *RunResult) string {
	s := fmt.Sprintf("act=%d drops=%d faultdrops=%d incomplete=%d pauses=%d events=%d\n",
		res.ACT, res.Drops, res.FaultDrops, res.Incomplete, res.Pauses, res.Events)
	for _, f := range res.Faults {
		s += fmt.Sprintf("%s repair=%d deliv=%d churn=%d\n",
			f.Event, f.RepairAt, f.FirstDeliveryAfter, f.RulesChanged)
	}
	return s
}

// TestFaultRunDeterministic: equal seeds reproduce every byte of a
// fault run — ACT, loss counters, per-fault repair and reconvergence
// times, churn, and per-flow completions.
func TestFaultRunDeterministic(t *testing.T) {
	var digests []string
	var flowEnds [][]netsim.Time
	for rep := 0; rep < 2; rep++ {
		tb, g, fs, spec := faultFixture(t, 7)
		res, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: fs.Flows, Faults: spec})
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultDrops == 0 {
			t.Fatal("fixture produced no fault drops; the outage missed the traffic")
		}
		if len(res.Faults) != len(spec.Events) {
			t.Fatalf("fault records = %+v", res.Faults)
		}
		churn, reconverged := 0, 0
		for i := range res.Faults {
			churn += res.Faults[i].RulesChanged
			if res.Faults[i].Reconvergence() > 0 {
				reconverged++
			}
		}
		if reconverged == 0 {
			t.Fatal("no reconvergence measured")
		}
		if churn == 0 {
			t.Fatal("repair churned no rules")
		}
		digests = append(digests, recoveryDigest(res))
		ends := make([]netsim.Time, len(fs.Flows))
		for i := range fs.Flows {
			ends[i] = fs.Flows[i].End
		}
		flowEnds = append(flowEnds, ends)
	}
	if digests[0] != digests[1] {
		t.Fatalf("fault runs diverged:\n%s\nvs\n%s", digests[0], digests[1])
	}
	for i := range flowEnds[0] {
		if flowEnds[0][i] != flowEnds[1][i] {
			t.Fatalf("flow %d completion diverged: %d vs %d", i, flowEnds[0][i], flowEnds[1][i])
		}
	}
}

// TestFaultSweepWorkerCountInvariant: the same fault jobs produce
// byte-identical results at any Sweep worker count.
func TestFaultSweepWorkerCountInvariant(t *testing.T) {
	run := func(workers int) string {
		var out string
		tb, g, _, _ := faultFixture(t, 1)
		var jobs []Job
		var sets []*loadgen.FlowSet
		for s := int64(1); s <= 3; s++ {
			_, _, fs, spec := faultFixture(t, s)
			sets = append(sets, fs)
			jobs = append(jobs, Job{TB: tb, Scenario: Scenario{Topo: g, Flows: fs.Flows, Faults: spec}})
		}
		results, err := Sweep(context.Background(), jobs, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			out += recoveryDigest(res)
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

// TestNoFaultsIdenticalToEmptySpec: a nil Faults field and an empty
// spec produce the same simulation byte-for-byte (same ACT, drops,
// event count, flow completions) — the "no faults => no behaviour
// change" contract, mechanically: an empty schedule binds no events
// and the cloned route set compiles to an identical FIB.
func TestNoFaultsIdenticalToEmptySpec(t *testing.T) {
	run := func(spec *faults.Spec) (*RunResult, []netsim.Time) {
		tb, g, fs, _ := faultFixture(t, 5)
		res, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: fs.Flows, Faults: spec})
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
	empty, emptyEnds := run(&faults.Spec{})
	if plain.ACT != empty.ACT || plain.Drops != empty.Drops || plain.Events != empty.Events {
		t.Fatalf("empty fault spec changed the run: %+v vs %+v", plain, empty)
	}
	for i := range plainEnds {
		if plainEnds[i] != emptyEnds[i] {
			t.Fatalf("flow %d completion changed under an empty spec", i)
		}
	}
	if plain.Faults != nil {
		t.Fatal("nil spec grew fault records")
	}
	if empty.Faults == nil || len(empty.Faults) != 0 {
		t.Fatalf("empty spec fault records = %+v", empty.Faults)
	}
	if plain.FaultDrops != 0 || empty.FaultDrops != 0 {
		t.Fatal("healthy runs counted fault drops")
	}
}

// TestFaultStormCancellation: a run under a dense flap storm cancels
// mid-simulation like any other (run with -race in CI: the watcher
// goroutine races the engine only through the atomic stop flag).
func TestFaultStormCancellation(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.DefaultConfig()
	fs, err := loadgen.Spec{
		Ranks: 16, Pattern: loadgen.Uniform(), Sizes: loadgen.FixedSize(256 << 10),
		Load: 0.9, Flows: 5000, Seed: 2, LinkBps: cfg.LinkBps,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// A storm: every core edge flapping fast for the whole window.
	spec := &faults.Spec{
		Horizon: fs.Flows[len(fs.Flows)-1].Start,
		Seed:    2,
	}
	for _, e := range faults.PickCoreEdges(g, 8, 2) {
		spec.Flaps = append(spec.Flaps,
			faults.Flap{Link: e, MTBF: 100 * netsim.Microsecond, MTTR: 50 * netsim.Microsecond})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := false
	_, err = Run(ctx, tb, Scenario{Topo: g, Flows: fs.Flows, Faults: spec},
		WithObserver(Hooks{
			Period: 50 * netsim.Microsecond,
			Tick: func(_ netsim.Time, _ *netsim.Network) {
				if !cancelled {
					cancelled = true
					cancel()
					time.Sleep(10 * time.Millisecond)
				}
			},
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !cancelled {
		t.Fatal("tick never fired")
	}
}
