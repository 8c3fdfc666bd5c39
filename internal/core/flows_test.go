package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// An open-loop flow scenario must run through Run like a trace does:
// every flow completes, results land in the caller's slice, and the
// same seed reproduces identical FCTs.
func TestRunFlowsScenario(t *testing.T) {
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
	flows := gen()
	res, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: flows, Mode: FullTestbed})
	if err != nil {
		t.Fatal(err)
	}
	if res.ACT <= 0 {
		t.Fatalf("ACT = %v", res.ACT)
	}
	var last netsim.Time
	for i := range flows {
		f := &flows[i]
		if !f.Completed {
			t.Fatalf("flow %d incomplete", i)
		}
		if f.FCT() <= 0 {
			t.Fatalf("flow %d FCT %v", i, f.FCT())
		}
		if f.End < f.Start {
			t.Fatalf("flow %d ends before it starts", i)
		}
		if f.End > last {
			last = f.End
		}
	}
	if last != res.ACT {
		t.Fatalf("ACT %v != last completion %v", res.ACT, last)
	}

	flows2 := gen()
	if _, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: flows2, Mode: FullTestbed}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flows, flows2) {
		t.Fatal("same seed produced different flow results")
	}
}

// The same schedule must complete identically whether run live through
// the flow app or compiled into a trace — same injection model, same
// fabric — with the trace replay reporting the same ACT.
func TestFlowsVsCompiledTrace(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	fs := loadgen.Spec{
		Ranks: 8, Pattern: loadgen.Uniform(), Sizes: loadgen.FixedSize(16 * 1024),
		Load: 0.3, Flows: 40, Seed: 11,
	}.MustGenerate()
	live, err := Run(context.Background(), tb, Scenario{Topo: g, Flows: fs.Flows, Mode: FullTestbed})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(context.Background(), tb, Scenario{Topo: g, Trace: fs.Trace(), Mode: FullTestbed})
	if err != nil {
		t.Fatal(err)
	}
	// Trace replay finishes when the last rank's last op retires; the
	// flow app when the last flow delivers. Both see the same packets,
	// so ACTs agree exactly.
	if live.ACT != replay.ACT {
		t.Fatalf("live ACT %v != compiled-trace ACT %v", live.ACT, replay.ACT)
	}
}

// Scenario validation: a trace and flows together is an error, as is
// neither.
func TestScenarioExclusivity(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), tb, Scenario{Topo: g}); err == nil {
		t.Fatal("scenario without workload ran")
	}
	tr := workload.Pingpong(1024, 1)
	fl := []netsim.Flow{{Src: 0, Dst: 1, Bytes: 64, Tag: 0}}
	st := func() []Stream { return []Stream{{Src: 0, Dst: 1}} }
	for _, c := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"trace and flows", Scenario{Topo: g, Trace: tr, Flows: fl}, "only one of"},
		{"streams and trace", Scenario{Topo: g, Trace: tr, Streams: st(), Until: netsim.Millisecond}, "only one of"},
		{"streams and flows", Scenario{Topo: g, Flows: fl, Streams: st(), Until: netsim.Millisecond}, "only one of"},
		{"streams without until", Scenario{Topo: g, Streams: st()}, "needs a stream and an Until"},
		{"empty streams", Scenario{Topo: g, Streams: []Stream{}, Until: netsim.Millisecond}, "needs a stream and an Until"},
		{"until without streams", Scenario{Topo: g, Flows: fl, Until: netsim.Millisecond}, "only Streams take an Until"},
		{"stream to itself", Scenario{Topo: g, Streams: []Stream{{Src: 1, Dst: 1}}, Until: netsim.Millisecond}, "two distinct ranks"},
		{"negative stream rank", Scenario{Topo: g, Streams: []Stream{{Src: -1, Dst: 1}}, Until: netsim.Millisecond}, "two distinct ranks"},
	} {
		if _, err := Run(context.Background(), tb, c.sc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// A bad flow schedule is an error at both fidelities, never a panic
	// in the packet fabric's flow app.
	for _, c := range []struct {
		name string
		f    netsim.Flow
	}{
		{"flow to itself", netsim.Flow{Src: 1, Dst: 1, Bytes: 64}},
		{"negative flow source", netsim.Flow{Src: -1, Dst: 1, Bytes: 64}},
		{"negative flow destination", netsim.Flow{Src: 0, Dst: -2, Bytes: 64}},
		{"negative flow size", netsim.Flow{Src: 0, Dst: 1, Bytes: -1}},
		{"duplicate flow", netsim.Flow{Src: 2, Dst: 3, Bytes: 128}},
	} {
		for _, fid := range []Fidelity{Packet, Flow} {
			sc := Scenario{Topo: g, Flows: []netsim.Flow{{Src: 2, Dst: 3, Bytes: 64}, c.f}, Fidelity: fid}
			if _, err := Run(context.Background(), tb, sc); err == nil || !strings.Contains(err.Error(), "core: flow 1") {
				t.Errorf("%s at fidelity %v: err = %v, want core's flow 1 rejected", c.name, fid, err)
			}
		}
	}
	// A rank placed on a vertex that is not a host is an error for every
	// workload kind at both fidelities, never a panic in the fabric.
	sw := g.HostSwitch(g.Hosts()[0])
	for _, v := range []int{sw, len(g.Vertices), -1} {
		hosts := []int{v, g.Hosts()[1]}
		for _, c := range []struct {
			name string
			sc   Scenario
		}{
			{"trace", Scenario{Topo: g, Trace: tr, Hosts: hosts}},
			{"streams", Scenario{Topo: g, Streams: st(), Until: netsim.Millisecond, Hosts: hosts}},
			{"flows", Scenario{Topo: g, Flows: fl, Hosts: hosts}},
			{"flows at flow fidelity", Scenario{Topo: g, Flows: fl, Hosts: hosts, Fidelity: Flow}},
		} {
			if _, err := Run(context.Background(), tb, c.sc); err == nil || !strings.Contains(err.Error(), "rank 0 is placed on vertex") {
				t.Errorf("%s with rank 0 on vertex %d: err = %v, want the placement rejected", c.name, v, err)
			}
		}
	}
}

// TestStreamsRun: a Streams scenario runs to its Until bound, reports
// it as the ACT, and hands the caller each stream's live connection.
func TestStreamsRun(t *testing.T) {
	g := topology.Line(3, 1)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	streams := []Stream{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	until := 5 * netsim.Millisecond
	ticks := 0
	res, err := Run(context.Background(), tb, Scenario{Topo: g, Streams: streams, Until: until, Mode: FullTestbed},
		WithObserver(Hooks{Period: netsim.Millisecond, Tick: func(netsim.Time, *netsim.Network) { ticks++ }}))
	if err != nil {
		t.Fatal(err)
	}
	if res.ACT != until {
		t.Errorf("ACT = %v, want the Until bound %v", res.ACT, until)
	}
	if ticks != 5 {
		t.Errorf("%d ticks, want 5: one per period up to and including Until", ticks)
	}
	for i, s := range streams {
		if s.Conn == nil || s.Conn.RcvBytes <= 0 {
			t.Errorf("stream %d: connection %v delivered nothing", i, s.Conn)
		}
	}
}

// Flow scenarios must respect cancellation like trace scenarios do.
func TestFlowsCancellation(t *testing.T) {
	g := topology.FatTree(4)
	tb, err := PaperTestbed([]*topology.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	flows := loadgen.Spec{
		Ranks: 16, Sizes: loadgen.FixedSize(1 << 20), Load: 0.9, Flows: 400, Seed: 3,
	}.MustGenerate().Flows
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, tb, Scenario{Topo: g, Flows: flows, Mode: FullTestbed}); err != context.Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}
}
