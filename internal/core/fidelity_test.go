package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/reconfig"
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
