package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/flowsim"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

func fidelityFixture(t *testing.T) (*topology.Graph, *Testbed, func() []netsim.Flow) {
	t.Helper()
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() []netsim.Flow {
		return loadgen.Spec{
			Ranks: 8, Pattern: loadgen.Permutation(), Sizes: loadgen.FixedSize(32 * 1024),
			Load: 0.4, Flows: 60, Seed: 5,
		}.MustGenerate().Flows
	}
	return g, tb, gen
}

// TestFlowFidelityRun: a Flow-fidelity scenario completes, writes every
// flow's result fields, and reruns byte-identically.
func TestFlowFidelityRun(t *testing.T) {
	g, tb, gen := fidelityFixture(t)
	flows := gen()
	res, err := Run(context.Background(), tb, Scenario{
		Topo: g, Flows: flows, Mode: FullTestbed, Fidelity: Flow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ACT <= 0 {
		t.Fatalf("ACT = %v", res.ACT)
	}
	if res.Events <= 0 {
		t.Fatalf("Events (rate recomputes) = %d, want > 0", res.Events)
	}
	var last netsim.Time
	for i := range flows {
		if !flows[i].Completed {
			t.Fatalf("flow %d incomplete", i)
		}
		if flows[i].FCT() <= 0 {
			t.Fatalf("flow %d FCT %v", i, flows[i].FCT())
		}
		if flows[i].End > last {
			last = flows[i].End
		}
	}
	if last != res.ACT {
		t.Fatalf("ACT %v != last completion %v", res.ACT, last)
	}

	flows2 := gen()
	if _, err := Run(context.Background(), tb, Scenario{
		Topo: g, Flows: flows2, Mode: FullTestbed, Fidelity: Flow,
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flows, flows2) {
		t.Fatal("same seed produced different flow-fidelity results")
	}
}

// TestFidelityFieldSelectsEngine: Scenario.Fidelity alone decides which
// engine runs a schedule. Flow on a trace is rejected by the flow path;
// the same schedule at Packet and Flow completes on both engines, and
// the packet engine fires far more events than the fluid one recomputes
// rates.
func TestFidelityFieldSelectsEngine(t *testing.T) {
	g, tb, gen := fidelityFixture(t)
	tr := workload.Pingpong(1024, 1)
	_, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: tr, Fidelity: Flow})
	if err == nil || !strings.Contains(err.Error(), "flow fidelity requires an open-loop Flows scenario") {
		t.Fatalf("Fidelity: Flow on a trace: err = %v", err)
	}
	events := map[Fidelity]int64{}
	for _, f := range []Fidelity{Packet, Flow} {
		res, err := Run(context.Background(), tb, Scenario{
			Topo: g, Flows: gen(), Mode: FullTestbed, Fidelity: f,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.ACT <= 0 {
			t.Fatalf("%s run did not complete", f)
		}
		events[f] = res.Events
	}
	if events[Packet] <= events[Flow] {
		t.Errorf("packet run fired %d events, flow run %d; want packet > flow", events[Packet], events[Flow])
	}
}

// TestFlowFidelityValidation pins the loud failures: everything the
// fluid model cannot express is an error, not a silent degradation.
func TestFlowFidelityValidation(t *testing.T) {
	g, tb, gen := fidelityFixture(t)
	tr := workload.Pingpong(1024, 1)
	cases := []struct {
		name string
		sc   Scenario
		opts []Option
		want string
	}{
		{"trace", Scenario{Topo: g, Trace: tr, Fidelity: Flow}, nil,
			"flow fidelity requires an open-loop Flows scenario"},
		{"streams", Scenario{Topo: g, Streams: []Stream{{Src: 0, Dst: 1}}, Until: netsim.Millisecond, Fidelity: Flow}, nil,
			"flow fidelity requires an open-loop Flows scenario"},
		{"faults", Scenario{Topo: g, Flows: gen(), Fidelity: Flow,
			Faults: &faults.Spec{}}, nil,
			"flow fidelity cannot inject faults"},
		{"reconfig", Scenario{Topo: g, Flows: gen(), Fidelity: Flow,
			Reconfig: &reconfig.Spec{}}, nil,
			"flow fidelity cannot reconfigure"},
		{"sdt", Scenario{Topo: g, Flows: gen(), Mode: SDT, Fidelity: Flow}, nil,
			"flow fidelity does not model SDT"},
		{"observer", Scenario{Topo: g, Flows: gen(), Fidelity: Flow}, []Option{
			WithTelemetry(telemetry.NewCollector(g, netsim.Millisecond, 0))},
			"flow fidelity supports no observers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), tb, tc.sc, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestFlowFidelitySweep: flow-fidelity jobs run under Sweep at any
// worker count with results identical to serial Run.
func TestFlowFidelitySweep(t *testing.T) {
	g, tb, gen := fidelityFixture(t)
	mkJobs := func() ([]Job, [][]netsim.Flow) {
		var jobs []Job
		var flowSets [][]netsim.Flow
		for i := 0; i < 4; i++ {
			flows := gen()
			flowSets = append(flowSets, flows)
			jobs = append(jobs, Job{TB: tb, Scenario: Scenario{
				Topo: g, Flows: flows, Mode: FullTestbed, Fidelity: Flow,
			}})
		}
		return jobs, flowSets
	}
	serialJobs, serialFlows := mkJobs()
	serial, err := Sweep(context.Background(), serialJobs)
	if err != nil {
		t.Fatal(err)
	}
	parJobs, parFlows := mkJobs()
	par, err := Sweep(context.Background(), parJobs, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].ACT != par[i].ACT {
			t.Fatalf("job %d: serial ACT %v != parallel %v", i, serial[i].ACT, par[i].ACT)
		}
		if !reflect.DeepEqual(serialFlows[i], parFlows[i]) {
			t.Fatalf("job %d: flow results diverged across worker counts", i)
		}
	}
}

// TestFlowFidelityCancellation: the (nil, ctx.Err()) contract holds on
// the flow path too.
func TestFlowFidelityCancellation(t *testing.T) {
	g, tb, gen := fidelityFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, tb, Scenario{Topo: g, Flows: gen(), Fidelity: Flow})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled flow-fidelity Run returned a partial result")
	}
}

// TestFlowFidelityRouteErrors pins what a flow-level run reports when
// its routes fail, on a FatTree(4) with two hosts linked to nothing: a
// schedule with pairs that cannot be walked reports the one whose first
// flow injects earliest, in Routes.Walk's words; a schedule toward such
// hosts fails its route build and reports the lowest of them, wrapped;
// a strategy that routes another fabric is refused as flowsim.Run
// refuses its route set.
// The destinations span two blocks of the route build, and the text is
// the same whether one worker or GOMAXPROCS build them.
func TestFlowFidelityRouteErrors(t *testing.T) {
	c := topology.FatTree(4).ToConfig()
	c.Hosts = append(c.Hosts, "orphan-a", "orphan-b")
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts() // ranks 16 and 17 are the orphans
	a, b := hosts[16], hosts[17]
	if g.HostSwitch(a) >= 0 || g.HostSwitch(b) >= 0 {
		t.Fatalf("orphans %d and %d are linked", a, b)
	}
	// sched is a permutation of the fabric's 16 hosts plus extra.
	sched := func(extra ...netsim.Flow) []netsim.Flow {
		var flows []netsim.Flow
		for r := range 16 {
			flows = append(flows, netsim.Flow{Src: r, Dst: (r + 5) % 16, Bytes: 4096})
		}
		return append(flows, extra...)
	}
	tb := &Testbed{Cfg: netsim.DefaultConfig()}
	other := topology.FatTree(4)
	for _, c := range []struct {
		name  string
		strat routing.Strategy
		flows []netsim.Flow
		want  string
	}{
		{"unroutable", nil, sched(
			netsim.Flow{Src: 16, Dst: 1, Bytes: 4096, Start: 10},
			netsim.Flow{Src: 17, Dst: 12, Bytes: 4096, Start: 5},
		), fmt.Sprintf("routing: fattree-dfs: host %d unattached", b)},
		{"build", nil, sched(
			netsim.Flow{Src: 3, Dst: 17, Bytes: 4096},
			netsim.Flow{Src: 9, Dst: 16, Bytes: 4096, Start: 10},
		), fmt.Sprintf("core: flow-fidelity route subset: routing: fattree-dfs: host %d has no switch", a)},
		{"foreign", otherGraph{other}, sched(), fmt.Sprintf(
			"flowsim: routes were computed for another graph (%q) than the one being run (%q)", other.Name, g.Name)},
	} {
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			prev := runtime.GOMAXPROCS(procs)
			_, err := Run(context.Background(), tb, Scenario{
				Topo: g, Hosts: hosts, Flows: c.flows, Strategy: c.strat, Mode: Simulator, Fidelity: Flow,
			})
			runtime.GOMAXPROCS(prev)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s at GOMAXPROCS %d: %v, want %s", c.name, procs, err, c.want)
			}
		}
	}
}

// otherGraph is a strategy that routes another fabric than the one it
// is asked to.
type otherGraph struct{ g *topology.Graph }

func (otherGraph) Name() string { return "other" }

func (s otherGraph) Compute(*topology.Graph) (*routing.Routes, error) {
	return routing.ShortestPath{}.Compute(s.g)
}

// TestRunSubsetBytesBounded is the bytes budget of a flow-level run
// through core, set-up and fluid loop: a FatTree(16) and a uniform
// 256-flow schedule over 64 spread ranks, at GOMAXPROCS 2, so two
// workers build the route blocks. The run keeps no route set: each
// worker builds 8 destinations' rules at a time into storage it reuses
// and walks their pairs. Measured: 528 kB per run on amd64; the budget
// adds 9.8 %. The subset route set ComputeFor builds toward the same
// destinations holds 19 840 rules, 952 kB, so a run that kept it (or
// materialised any rule array of its size) exceeds the budget by
// 900 kB.
func TestRunSubsetBytesBounded(t *testing.T) {
	const budget = 0.58e6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := topology.FatTree(16)
	cfg := netsim.DefaultConfig()
	flows := loadgen.Spec{
		Ranks: 64, Pattern: loadgen.Uniform(),
		Sizes: loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64),
		Load:  0.5, Flows: 256, Seed: 1, LinkBps: cfg.LinkBps,
	}.MustGenerate().Flows
	tb := &Testbed{Cfg: cfg}
	sched := make([]netsim.Flow, len(flows))
	run := func() {
		copy(sched, flows)
		if _, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: sched, Mode: Simulator, Fidelity: Flow}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warms the graph's caches
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs

	var dsts []int
	hosts := PickSpread(g.Hosts(), 64)
	for i := range flows {
		dsts = append(dsts, hosts[flows[i].Dst])
	}
	sub, err := routing.FatTreeDFS{}.ComputeFor(g, dsts)
	if err != nil {
		t.Fatal(err)
	}
	kept := float64(len(sub.Rules)) * float64(unsafe.Sizeof(routing.Rule{}))
	t.Logf("flow-level Run: %.0f bytes; the subset's rule array: %.0f", bytes, kept)
	if bytes > budget {
		t.Errorf("a flow-level Run allocates %.0f bytes, budget %.0f", bytes, budget)
	}
	if bytes+kept <= budget {
		t.Errorf("a Run that kept the subset's rules (%.0f + %.0f bytes) would fit the budget of %.0f", bytes, kept, budget)
	}
}

// BenchmarkFlowSetupXL is a flow-level run's set-up as the flow-xl
// benchmark cell pays it, without the fluid loop: a uniform 8 192-flow
// schedule over 256 spread ranks of a FatTree(48) grouped into its
// host pairs, the route blocks toward its 256 destinations built and
// every pair walked. BenchmarkComputeForXL is the route set this
// replaced.
func BenchmarkFlowSetupXL(b *testing.B) {
	g := topology.FatTree(48)
	cfg := netsim.DefaultConfig()
	flows := loadgen.Spec{
		Ranks: 256, Pattern: loadgen.Uniform(),
		Sizes: loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64),
		Load:  0.5, Flows: 8192, Seed: 1, LinkBps: cfg.LinkBps,
	}.MustGenerate().Flows
	hosts := PickSpread(g.Hosts(), 256)
	g.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sim, err := flowsim.New(g, cfg, hosts, flows)
		if err != nil {
			b.Fatal(err)
		}
		if err := flowPaths(sim, g, routing.FatTreeDFS{}); err != nil {
			b.Fatal(err)
		}
		if len(sim.Dsts()) != 256 {
			b.Fatalf("%d destinations, want 256", len(sim.Dsts()))
		}
	}
}
