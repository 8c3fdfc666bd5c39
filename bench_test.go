// Root benchmark harness: one testing.B benchmark per table and figure
// of the paper (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out. Custom metrics
// report the headline numbers (overhead %, deviation %, speedups) so a
// bench run doubles as a reproduction check.
package sdt_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

// BenchmarkTable1 regenerates the qualitative tool comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1().Format(io.Discard)
	}
}

// BenchmarkFig11 regenerates the latency-overhead sweep (Fig. 11).
func BenchmarkFig11(b *testing.B) {
	var max float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(b.Context(), 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		max = res.MaxOverhead
	}
	b.ReportMetric(max*100, "max-overhead-%")
}

// BenchmarkFig12 regenerates the incast bandwidth test (Fig. 12),
// PFC-on panel on SDT. Allocations are reported: the typed-event
// engine + packet pool cut this from ~4.85M allocs/op (seed) to a few
// thousand.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	var agg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(b.Context(), core.SDT, true, 200*netsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		agg = res.AggregateGbps
	}
	b.ReportMetric(agg, "aggregate-Gbps")
}

// BenchmarkTable2 regenerates the TP-method comparison (Table II) over
// a zoo subset.
func BenchmarkTable2(b *testing.B) {
	var cover int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(b.Context(), 30, 1)
		if err != nil {
			b.Fatal(err)
		}
		cover = res.Rows[0].ZooCoverage
	}
	b.ReportMetric(float64(cover), "sdt-zoo-coverage")
}

// BenchmarkTable3 regenerates the routing/deadlock matrix (Table III).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if !row.DeadlockFree {
				b.Fatalf("%s: cycle", row.Topology)
			}
		}
	}
}

// BenchmarkTable4 regenerates the application ACT comparison
// (Table IV) at 8 ranks with two applications.
func BenchmarkTable4(b *testing.B) {
	var dev float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(b.Context(), 8, []string{"HPCG", "IMB"}, 1)
		if err != nil {
			b.Fatal(err)
		}
		dev = res.MaxDeviation
	}
	b.ReportMetric(dev*100, "max-ACT-deviation-%")
}

// BenchmarkFig13 regenerates the evaluation-time scaling study
// (Fig. 13) at reduced message volume, with allocations reported.
func BenchmarkFig13(b *testing.B) {
	b.ReportAllocs()
	var simFactor float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(b.Context(), []int{2, 8, 16}, 64*1024, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		simFactor = res.Points[len(res.Points)-1].SimFactor
	}
	b.ReportMetric(simFactor, "sim-slowdown-x")
}

// BenchmarkIsolation regenerates the §VI-B hardware-isolation check.
func BenchmarkIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Isolation()
		if err != nil {
			b.Fatal(err)
		}
		if res.CrossDelivered {
			b.Fatal("isolation violated")
		}
	}
}

// BenchmarkActiveRouting regenerates the §VI-E active-routing study.
func BenchmarkActiveRouting(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ActiveRouting(b.Context(), 8, 128*1024)
		if err != nil {
			b.Fatal(err)
		}
		red = res.Reduction
	}
	b.ReportMetric(red*100, "ACT-reduction-%")
}

// BenchmarkFlowTableUsage regenerates the §VII-C flow-table occupancy.
func BenchmarkFlowTableUsage(b *testing.B) {
	var perSwitch int
	for i := 0; i < b.N; i++ {
		res, err := experiments.FlowTableUsage()
		if err != nil {
			b.Fatal(err)
		}
		perSwitch = res.MergedPerSwitch[0]
	}
	b.ReportMetric(float64(perSwitch), "entries-per-switch")
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationPartition contrasts the paper's balanced objective
// with pure min-cut (§IV-C, Fig. 8): cut edges vs port imbalance.
func BenchmarkAblationPartition(b *testing.B) {
	g := topology.Torus3D(4, 4, 4, 1)
	var balImb, mcImb float64
	var balCut, mcCut int
	for i := 0; i < b.N; i++ {
		bal, err := partition.Cut(g, 3, partition.Options{Objective: partition.Balanced})
		if err != nil {
			b.Fatal(err)
		}
		mc, err := partition.Cut(g, 3, partition.Options{Objective: partition.MinCut})
		if err != nil {
			b.Fatal(err)
		}
		balImb, mcImb = bal.Imbalance, mc.Imbalance
		balCut, mcCut = bal.CutEdges, mc.CutEdges
	}
	b.ReportMetric(balImb*100, "balanced-imbalance-%")
	b.ReportMetric(mcImb*100, "mincut-imbalance-%")
	b.ReportMetric(float64(balCut), "balanced-cut")
	b.ReportMetric(float64(mcCut), "mincut-cut")
}

// BenchmarkAblationCutThrough measures the latency effect of
// cut-through vs store-and-forward in the fabric model.
func BenchmarkAblationCutThrough(b *testing.B) {
	g := topology.Line(8, 1)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		b.Fatal(err)
	}
	rtt := func(ct bool) netsim.Time {
		cfg := netsim.DefaultConfig()
		cfg.CutThrough = ct
		net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), cfg, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		hosts := g.Hosts()
		return netsim.MeanRTT(netsim.MeasurePingpong(net, hosts[0], hosts[7], 4096, 10))
	}
	var ct, sf netsim.Time
	for i := 0; i < b.N; i++ {
		ct, sf = rtt(true), rtt(false)
	}
	b.ReportMetric(float64(ct)/1e6, "cutthrough-rtt-us")
	b.ReportMetric(float64(sf)/1e6, "storefwd-rtt-us")
}

// BenchmarkAblationDCQCN measures DCQCN's effect on PFC pause volume
// under incast (the §VI-E congestion-control deployment).
func BenchmarkAblationDCQCN(b *testing.B) {
	g := topology.Line(8, 1)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		b.Fatal(err)
	}
	run := func(cc string) int64 {
		cfg := netsim.DefaultConfig()
		cfg.ECN = true
		cfg.CC = cc
		net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), cfg, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		hosts := g.Hosts()
		for j, h := range hosts {
			if j == 3 {
				continue
			}
			net.Host(h).Send(hosts[3], 1, 2<<20)
		}
		net.Sim.Run(0)
		return net.PausesSent
	}
	var on, off int64
	for i := 0; i < b.N; i++ {
		on, off = run(netsim.CCDCQCN), run("")
	}
	b.ReportMetric(float64(on), "pauses-dcqcn-on")
	b.ReportMetric(float64(off), "pauses-dcqcn-off")
}

// BenchmarkAblationEntryMerge contrasts the tag-encoded (merged) flow
// table encoding against the naive per-in-port scheme (§VII-C).
func BenchmarkAblationEntryMerge(b *testing.B) {
	g := topology.FatTree(4)
	switches := []projection.PhysicalSwitch{
		projection.Commodity64("a"), projection.Commodity64("b"), projection.Commodity64("c"),
	}
	cab, err := projection.PlanCabling(switches, []*topology.Graph{g}, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := projection.Project(g, cab, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		b.Fatal(err)
	}
	var merged, naive int
	for i := 0; i < b.N; i++ {
		m, err := projection.CompileFlowTables(plan, routes, projection.CompileOptions{Encoding: projection.TagEncoded})
		if err != nil {
			b.Fatal(err)
		}
		n, err := projection.CompileFlowTables(plan, routes, projection.CompileOptions{Encoding: projection.PerInPort})
		if err != nil {
			b.Fatal(err)
		}
		merged, naive = projection.EntryCount(m), projection.EntryCount(n)
	}
	b.ReportMetric(float64(merged), "entries-merged")
	b.ReportMetric(float64(naive), "entries-per-in-port")
}
