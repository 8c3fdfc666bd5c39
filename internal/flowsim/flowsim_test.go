package flowsim

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// lineFixture computes routes and rank hosts for Line(n, hostsPer).
func lineFixture(t *testing.T, n, hostsPer int) (*topology.Graph, *routing.Routes, []int) {
	t.Helper()
	g := topology.Line(n, hostsPer)
	r, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, r, g.Hosts()
}

// payloadCap returns the engine's effective payload capacity in bytes
// per picosecond for cfg.
func payloadCap(cfg netsim.Config) float64 {
	return cfg.LinkBps / 8 / float64(netsim.Second) * float64(cfg.MTU) / float64(cfg.MTU+netsim.HeaderBytes)
}

// lineBase replicates the walker's zero-load latency for a Line path
// crossing nsw switches and nLinks links.
func lineBase(cfg netsim.Config, nsw, nLinks int) float64 {
	base := 2*float64(cfg.HostLatency) + float64(nsw)*float64(cfg.SwitchLatency) + float64(nLinks)*float64(cfg.PropDelay)
	return base + float64(nsw)*float64(netsim.HeaderBytes*8)/cfg.LinkBps*float64(netsim.Second)
}

func wantTime(t *testing.T, got netsim.Time, want float64, what string) {
	t.Helper()
	if d := math.Abs(float64(got) - want); d > 2 {
		t.Errorf("%s = %d ps, want %.0f ps (off by %.0f)", what, got, want, d)
	}
}

func TestSingleFlowIdealFCT(t *testing.T) {
	g, r, hosts := lineFixture(t, 2, 1)
	cfg := netsim.DefaultConfig()
	flows := []netsim.Flow{{Src: 0, Dst: 1, Bytes: 1 << 20, Tag: 0}}
	res, err := Run(context.Background(), g, r, cfg, hosts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || !flows[0].Completed {
		t.Fatalf("flow did not complete: %+v", res)
	}
	want := float64(flows[0].Bytes)/payloadCap(cfg) + lineBase(cfg, 2, 3)
	wantTime(t, flows[0].End, want, "single-flow End")
	if res.ACT != flows[0].End {
		t.Errorf("ACT = %d, want last completion %d", res.ACT, flows[0].End)
	}
	if res.Pairs != 1 {
		t.Errorf("Pairs = %d, want 1", res.Pairs)
	}
}

func TestBottleneckSharing(t *testing.T) {
	// Two sources on sw0 send to one destination on sw1: both flows
	// share the sw0->sw1 link and the delivery link, so each runs at
	// half capacity and they finish together.
	g, r, hosts := lineFixture(t, 2, 2)
	cfg := netsim.DefaultConfig()
	const bytes = 1 << 20
	flows := []netsim.Flow{
		{Src: 0, Dst: 2, Bytes: bytes, Tag: 0},
		{Src: 1, Dst: 2, Bytes: bytes, Tag: 1},
	}
	res, err := Run(context.Background(), g, r, cfg, hosts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d of 2", res.Completed)
	}
	want := 2*bytes/payloadCap(cfg) + lineBase(cfg, 2, 3)
	wantTime(t, flows[0].End, want, "shared flow 0 End")
	wantTime(t, flows[1].End, want, "shared flow 1 End")
}

func TestStaggeredArrivalRates(t *testing.T) {
	// Flow A (2X bytes) starts alone at full rate; flow B (X bytes)
	// arrives exactly when A has X left, and they split the bottleneck:
	// both finish at 3X/C.
	g, r, hosts := lineFixture(t, 2, 2)
	cfg := netsim.DefaultConfig()
	const x = 1 << 20
	c := payloadCap(cfg)
	tArrive := netsim.Time(math.Round(float64(x) / c))
	flows := []netsim.Flow{
		{Src: 0, Dst: 2, Bytes: 2 * x, Tag: 0},
		{Src: 1, Dst: 2, Bytes: x, Tag: 1, Start: tArrive},
	}
	if _, err := Run(context.Background(), g, r, cfg, hosts, flows); err != nil {
		t.Fatal(err)
	}
	base := lineBase(cfg, 2, 3)
	wantTime(t, flows[0].End, 3*float64(x)/c+base, "flow A End")
	wantTime(t, flows[1].End, 3*float64(x)/c+base, "flow B End")
}

func TestPairSerialisation(t *testing.T) {
	// Two concurrent flows between the same (src, dst) pair serialise
	// like the RoCE queue pair: the second starts transmitting when the
	// first finishes.
	g, r, hosts := lineFixture(t, 2, 1)
	cfg := netsim.DefaultConfig()
	const bytes = 1 << 20
	flows := []netsim.Flow{
		{Src: 0, Dst: 1, Bytes: bytes, Tag: 0},
		{Src: 0, Dst: 1, Bytes: bytes, Tag: 1},
	}
	res, err := Run(context.Background(), g, r, cfg, hosts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 1 {
		t.Fatalf("Pairs = %d, want 1", res.Pairs)
	}
	c := payloadCap(cfg)
	base := lineBase(cfg, 2, 3)
	wantTime(t, flows[0].End, float64(bytes)/c+base, "first flow End")
	wantTime(t, flows[1].End, 2*float64(bytes)/c+base, "queued flow End")
}

func TestFairShareMaxMinAsymmetric(t *testing.T) {
	// f0 crosses both links, f1 only link 0, f2 and f3 only link 1.
	// Link 1 (three flows) is the tighter bottleneck: f0, f2, f3 freeze
	// at C/3; f1 then takes the rest of link 0 (2C/3).
	const c = 3.0
	caps := []float64{c, c}
	links := [][]int32{{0, 1}, {0}, {1}, {1}}
	rates := make([]float64, 4)
	fairShare(caps, links, rates)
	want := []float64{c / 3, 2 * c / 3, c / 3, c / 3}
	for i, w := range want {
		if math.Abs(rates[i]-w) > 1e-9 {
			t.Errorf("rate[%d] = %g, want %g", i, rates[i], w)
		}
	}
}

func TestFairShareZeroCapacityLink(t *testing.T) {
	caps := []float64{0, 1}
	links := [][]int32{{0, 1}, {1}}
	rates := make([]float64, 2)
	fairShare(caps, links, rates)
	if rates[0] != 0 {
		t.Errorf("flow through zero-cap link got rate %g", rates[0])
	}
	if math.Abs(rates[1]-1) > 1e-9 {
		t.Errorf("unconstrained flow got %g, want 1", rates[1])
	}
}

// fairShareTraps are the inputs on which a grouped filling can go wrong
// while every ungrouped one is right. Each must come out bit-identical
// to the oracle run on each component and at the hand-computed rates; FuzzFairShareOracle
// starts from them.
var fairShareTraps = []struct {
	name  string
	caps  []float64
	links [][]int32
	want  []float64
}{{
	// Links 2 and 3 group (count 2, capacity just above 1) and saturate
	// in round 1 with a residual just above 0, the round link 1 freezes
	// flow 0: link 2 leaves its group in the round the group saturates
	// and must still freeze flow 1.
	name:  "leave a group as it saturates",
	caps:  []float64{5, 0.5, 1 + 2e-12, 1 + 2e-12},
	links: [][]int32{{1, 2}, {2}, {3}, {3}, {0}},
	want:  []float64{0.5, 0.5, 0.5, 0.5, 5},
}, {
	// Link 0's group (count 2) empties in round 1, when link 1 freezes
	// both its flows; its stale residual must not set round 2's
	// increment for flow 2.
	name:  "group empties before it saturates",
	caps:  []float64{0.3, 0.2, 5},
	links: [][]int32{{1, 0}, {1, 0}, {2}},
	want:  []float64{0.1, 0.1, 5},
}, {
	// Flow 0 crosses links 0 and 1, both in the count-2 group, and
	// freezes on link 2: both links leave the group with one flow each.
	name:  "one flow on two links of a group",
	caps:  []float64{1, 1, 0.2},
	links: [][]int32{{0, 1, 2}, {0}, {1}},
	want:  []float64{0.2, 0.8, 0.8},
}}

func TestFairShareGroupTraps(t *testing.T) {
	for _, tc := range fairShareTraps {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]float64, len(tc.links))
			fairShare(tc.caps, tc.links, got)
			want := make([]float64, len(tc.links))
			(&oracleScratch{}).runComponents(tc.caps, tc.links, want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Abs(got[i]-tc.want[i]) > 1e-9 {
					t.Errorf("rate[%d] = %v, oracle %v, want %v", i, got[i], want[i], tc.want[i])
				}
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	g, r, hosts := lineFixture(t, 4, 2)
	cfg := netsim.DefaultConfig()
	mk := func() []netsim.Flow {
		var flows []netsim.Flow
		for i := 0; i < 32; i++ {
			flows = append(flows, netsim.Flow{
				Src:   i % len(hosts),
				Dst:   (i + 3) % len(hosts),
				Bytes: 10000 + 7777*i,
				Start: netsim.Time(i%5) * netsim.Microsecond,
				Tag:   i,
			})
		}
		return flows
	}
	a, b := mk(), mk()
	ra, err := Run(context.Background(), g, r, cfg, hosts, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), g, r, cfg, hosts, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ACT != rb.ACT || ra.Recomputes != rb.Recomputes {
		t.Fatalf("reruns diverged: %+v vs %+v", ra, rb)
	}
	for i := range a {
		if a[i].End != b[i].End || a[i].Completed != b[i].Completed {
			t.Fatalf("flow %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	g, r, hosts := lineFixture(t, 2, 1)
	cfg := netsim.DefaultConfig()
	cases := []struct {
		name  string
		flows []netsim.Flow
		want  string
	}{
		{"rank out of range", []netsim.Flow{{Src: 0, Dst: 9, Bytes: 1}}, "rank out of range"},
		{"self send", []netsim.Flow{{Src: 1, Dst: 1, Bytes: 1}}, "sends to itself"},
		{"negative size", []netsim.Flow{{Src: 0, Dst: 1, Bytes: -5}}, "negative size"},
		{"duplicate", []netsim.Flow{
			{Src: 0, Dst: 1, Bytes: 1, Tag: 7},
			{Src: 0, Dst: 1, Bytes: 2, Tag: 7},
		}, "duplicate flow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), g, r, cfg, hosts, tc.flows)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	if _, err := Run(context.Background(), g, nil, cfg, hosts, nil); err == nil {
		t.Error("nil routes accepted")
	}
	bad := cfg
	bad.LinkBps = 0
	if _, err := Run(context.Background(), g, r, bad, hosts, nil); err == nil {
		t.Error("zero-bandwidth config accepted")
	}
}

// TestRunRejectsForeignRoutes: a route set names the vertex IDs and
// ports of the graph it was computed for. Walked over any other graph —
// a stale one after a topology swap, even a second instance of the same
// generator — it must be refused, not resolved into plausible paths.
func TestRunRejectsForeignRoutes(t *testing.T) {
	g, r, hosts := lineFixture(t, 3, 1)
	cfg := netsim.DefaultConfig()
	for _, other := range []*topology.Graph{topology.Line(3, 1), topology.Ring(3, 1)} {
		flows := []netsim.Flow{{Src: 0, Dst: 2, Bytes: 1 << 10}}
		_, err := Run(context.Background(), other, r, cfg, hosts, flows)
		if err == nil || !strings.Contains(err.Error(), g.Name) || !strings.Contains(err.Error(), other.Name) {
			t.Errorf("routes of %q run on another %q: err = %v, want an error naming both", g.Name, other.Name, err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	g, r, hosts := lineFixture(t, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	flows := []netsim.Flow{{Src: 0, Dst: 1, Bytes: 1 << 20}}
	if _, err := Run(ctx, g, r, netsim.DefaultConfig(), hosts, flows); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestZeroByteFlowCompletesAtArrival(t *testing.T) {
	g, r, hosts := lineFixture(t, 2, 1)
	cfg := netsim.DefaultConfig()
	flows := []netsim.Flow{{Src: 0, Dst: 1, Bytes: 0, Start: netsim.Microsecond}}
	res, err := Run(context.Background(), g, r, cfg, hosts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatal("zero-byte flow did not complete")
	}
	wantTime(t, flows[0].End, float64(netsim.Microsecond)+lineBase(cfg, 2, 3), "zero-byte End")
}

func TestEmptySchedule(t *testing.T) {
	g, r, hosts := lineFixture(t, 2, 1)
	res, err := Run(context.Background(), g, r, netsim.DefaultConfig(), hosts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ACT != 0 || res.Completed != 0 {
		t.Fatalf("empty schedule: %+v", res)
	}
}

// TestSubsetRoutesSufficient pins the DstComputer integration: a route
// set computed only for the destinations the schedule references
// produces the same completions as the full route set.
func TestSubsetRoutesSufficient(t *testing.T) {
	g := topology.FatTree(4)
	hosts := g.Hosts()
	cfg := netsim.DefaultConfig()
	flows := []netsim.Flow{
		{Src: 0, Dst: 5, Bytes: 1 << 18, Tag: 0},
		{Src: 3, Dst: 5, Bytes: 1 << 18, Tag: 1},
		{Src: 7, Dst: 12, Bytes: 1 << 18, Tag: 2},
	}
	full, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := routing.FatTreeDFS{}.ComputeFor(g, []int{hosts[5], hosts[12]})
	if err != nil {
		t.Fatal(err)
	}
	fullFlows := append([]netsim.Flow(nil), flows...)
	if _, err := Run(context.Background(), g, full, cfg, hosts, fullFlows); err != nil {
		t.Fatal(err)
	}
	subFlows := append([]netsim.Flow(nil), flows...)
	if _, err := Run(context.Background(), g, sub, cfg, hosts, subFlows); err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if fullFlows[i].End != subFlows[i].End {
			t.Errorf("flow %d: full %d vs subset %d", i, fullFlows[i].End, subFlows[i].End)
		}
	}
}

// TestRunAllocsBounded is the allocation budget of a flow-level run: a
// permutation schedule on a k=8 fat-tree, so the pair queues and their
// paths are the same 128 whatever the schedule's length. Set-up
// (validation, paths, pair queues, the fair-share table's layout)
// allocates per flow; the event loop must not: a flow costs more than
// one recompute, and the table is laid out once per run while its
// scratch follows the active set, so a longer schedule adds ~0 loop
// allocations per flow.
func TestRunAllocsBounded(t *testing.T) {
	g := topology.FatTree(8)
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	cfg := netsim.DefaultConfig()
	// measure returns the allocations of a whole Run and of its event
	// loop alone, and the loop's recomputes.
	measure := func(n int) (run, loop float64, recomputes int64) {
		flows := loadgen.Spec{
			Ranks: len(hosts), Pattern: loadgen.Permutation(),
			Sizes: loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64),
			Load:  0.5, Flows: n, Seed: 1, LinkBps: cfg.LinkBps,
		}.MustGenerate().Flows
		sched := make([]netsim.Flow, n)
		run = testing.AllocsPerRun(3, func() {
			copy(sched, flows)
			if _, err := Run(context.Background(), g, routes, cfg, hosts, sched); err != nil {
				t.Fatal(err)
			}
		})
		copy(sched, flows)
		e, err := newEngine(g, routes, cfg, hosts, sched)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return run, float64(after.Mallocs - before.Mallocs), e.recomputes
	}
	const lo, hi = 500, 2500
	runLo, loopLo, recLo := measure(lo)
	runHi, loopHi, recHi := measure(hi)
	t.Logf("%d flows: Run %.0f allocations, loop %.0f over %d recomputes; %d flows: Run %.0f, loop %.0f over %d",
		lo, runLo, loopLo, recLo, hi, runHi, loopHi, recHi)
	perRecompute := float64(recHi-recLo) / (hi - lo)
	if perRecompute < 1 {
		t.Fatalf("%.2f recomputes per flow: the schedule no longer exercises the recompute path", perRecompute)
	}
	if perFlow := (loopHi - loopLo) / (hi - lo); perFlow > 0.05 {
		t.Errorf("the event loop allocates %.3f objects per flow (%.2f recomputes per flow), want ~0", perFlow, perRecompute)
	}

	// Set-up resolves one path per distinct (src, dst) pair into a slab
	// sized for the pairs and lays the pair queues out flat. For a fixed
	// number of flows its allocations do not depend on how many pairs
	// they span, and its bytes grow by at least a slab entry (a pathInfo
	// and its reserved links) per pair: a slab sized by the flows would
	// cost as much on 4 pairs as on 384. Every pair joins two hosts of
	// one edge switch, so all paths are equally long.
	setup := func(pairs int) (allocs, bytes float64) {
		const n, runs = 1024, 3
		sched := make([]netsim.Flow, n)
		build := func() {
			for i := range sched {
				p := i % pairs
				src := p % len(hosts)
				dst := src/4*4 + (src%4+1+p/len(hosts))%4
				sched[i] = netsim.Flow{Src: src, Dst: dst, Bytes: 1000, Tag: i}
			}
			if _, err := newEngine(g, routes, cfg, hosts, sched); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, build)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			build()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const few, many = 4, 3 * 128 // every same-edge pair of the 128 hosts
	fewA, fewB := setup(few)
	manyA, manyB := setup(many)
	t.Logf("newEngine over 1024 flows: %.0f allocations and %.0f bytes on %d pairs, %.0f and %.0f on %d",
		fewA, fewB, few, manyA, manyB, many)
	if manyA > fewA {
		t.Errorf("newEngine allocates %.0f objects for 1024 flows on %d pairs but %.0f on %d: set-up grows with the pairs", manyA, many, fewA, few)
	}
	entry := float64(unsafe.Sizeof(pathInfo{}) + linksPerPath*unsafe.Sizeof(int32(0)))
	if perPair := (manyB - fewB) / (many - few); perPair < entry {
		t.Errorf("newEngine takes %.0f bytes for 1024 flows on %d pairs and %.0f on %d, %.0f per extra pair, less than a %.0f-byte slab entry: the slab is sized by the flows",
			fewB, few, manyB, many, perPair, entry)
	}
}
