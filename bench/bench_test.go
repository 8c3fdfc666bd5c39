package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeLayers pins which layers do the work on which workload — the
// property the four workloads were chosen for.
var smokeLayers = map[string]struct{ busy, idle []string }{
	"pkt-fabric":   {[]string{"netsim.loop_s", "engine.events", "engine.hold_ns_per_event", "routing.fib_forward_ns", "netsim.events_per_pkt_hop"}, []string{"flowsim.run_s", "controller.deploy_s", "projection.projectable_s"}},
	"pkt-sdt-apps": {[]string{"netsim.loop_s", "engine.cancel_ns_per_op", "controller.deploy_s", "projection.entries", "workload.trace_build_s", "openflow.add_us_per_entry"}, []string{"flowsim.run_s", "projection.projectable_s", "loadgen.generate_s"}},
	"flow-xl":      {[]string{"routing.compute_for_s", "flowsim.run_s", "flowsim.recomputes", "routing.lookup_ns", "topology.validate_s"}, []string{"netsim.loop_s", "engine.events", "controller.deploy_s"}},
	"ctl-reconfig": {[]string{"projection.projectable_s", "controller.reconfigure_s", "controller.teardown_s", "partition.cut_s", "partition.cut_edges", "openflow.add_us_per_entry", "topology.zoo_s", "controller.model_deploy_ms"}, []string{"netsim.loop_s", "engine.events", "flowsim.run_s"}},
}

// TestSmoke runs every workload end to end at toy sizes, traced, and
// checks what the benchmark itself promises: no failed operation, one
// digest across the untraced and the traced cells, every metric named.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			tr := newTracer()
			rec, err := runWorkload(def, smokeScale, 1, 1, true, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.correct() {
				t.Fatalf("run not correct: stable=%v failed=%d %v", rec.Stable, rec.Failed, rec.Failures)
			}
			if rec.Attempted == 0 || rec.CellWall.N < minCells {
				t.Fatalf("attempted %d operations over %d cells", rec.Attempted, rec.CellWall.N)
			}
			for _, m := range endToEnd {
				if v, ok := rec.Metrics[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}
			for _, name := range smokeLayers[def.name].busy {
				if rec.Layers[name] <= 0 {
					t.Errorf("%s = %v, want > 0: the layer does work here", name, rec.Layers[name])
				}
			}
			for _, name := range smokeLayers[def.name].idle {
				if rec.Layers[name] != 0 {
					t.Errorf("%s = %v, want 0: the layer does nothing here", name, rec.Layers[name])
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != rec.Attempted || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line: correct=%v attempted=%d metrics=%d, want true, %d, %d",
					line.Correct, line.Attempted, len(line.Metrics), rec.Attempted, len(perLayer))
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := writeChromeTrace(path, tr.spans); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(buf, &trace); err != nil || len(trace.TraceEvents) != len(tr.spans) {
				t.Errorf("span file: %v, %d events for %d spans", err, len(trace.TraceEvents), len(tr.spans))
			}
		})
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, def := range workloads {
		cell := func(seed int64) string {
			w, err := def.new(smokeScale, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(newTracer()); err != nil {
				t.Fatal(err)
			}
			g := &gate{}
			d := w.cell(g)
			if g.failed != 0 {
				t.Fatalf("%s seed %d: %v", def.name, seed, g.msgs)
			}
			return d
		}
		a, b, c := cell(1), cell(1), cell(2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", def.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", def.name, a)
		}
	}
}

func TestGateCountsFailures(t *testing.T) {
	g := &gate{cell: 3}
	g.ops(10, 0, "none")
	g.ops(5, 2, "two of %s", "five")
	g.op(false, "single")
	if g.attempted != 16 || g.failed != 3 || len(g.msgs) != 2 {
		t.Fatalf("attempted %d failed %d msgs %q", g.attempted, g.failed, g.msgs)
	}
	if !strings.Contains(g.msgs[0], "cell 3") || !strings.Contains(g.msgs[0], "two of five") {
		t.Errorf("message %q does not name its cell and cause", g.msgs[0])
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Cell: 1, Name: "core.cell", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Cell: 1, Name: "controller.deploy", Start: ms(10), End: ms(60)},
		{ID: 2, Parent: 1, Cell: 1, Name: "routing.compute", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Cell: 1, Name: "routing.compute", Start: ms(30), End: ms(35)},
		{ID: 4, Parent: 0, Cell: 1, Name: "netsim.loop", Start: ms(60), End: ms(90)},
		{ID: 5, Parent: -1, Cell: 2, Name: "netsim.loop", Start: ms(100), End: ms(500)},
	}
	incl, self := spanTotals(spans, 1)
	for name, want := range map[string][2]time.Duration{
		"core.cell":         {ms(100), ms(20)}, // 100 - deploy 50 - loop 30
		"controller.deploy": {ms(50), ms(25)},  // 50 - two computes
		"routing.compute":   {ms(25), ms(25)},
		"netsim.loop":       {ms(30), ms(30)}, // cell 2's span is not counted
	} {
		if incl[name] != want[0] || self[name] != want[1] {
			t.Errorf("%s: inclusive %v self %v, want %v %v", name, incl[name], self[name], want[0], want[1])
		}
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total != ms(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.cell = 7
	tr.do("a.outer", func() { tr.do("b.inner", func() {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Cell != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("inner span %+v not within outer %+v", tr.spans[1], tr.spans[0])
	}
}

// TestQuartiles holds the helper to the values Python's
// statistics.quantiles(v, n=4) returns.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v            []float64
		q1, med, q3d float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
		{[]float64{2, 4, 4, 5, 6, 7, 8, 9, 10}, 4, 6, 8.5},
	} {
		q1, med, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3d) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3d)
		}
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, med, q3)
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("median")
	}
}

func TestVerdict(t *testing.T) {
	m := metricDef{name: "cell_wall_s", better: "lower", bound: 0.10}
	steady := func(base float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base * (1 + 0.002*float64(i%5))
		}
		return v
	}
	noisy := func(base float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base * (1 + 0.08*float64(i%5))
		}
		return v
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster on every pair, beyond the parent's spread", steady(3.0), steady(2.5), "improved"},
		{"same", steady(3.0), steady(3.0), "unchanged"},
		{"slower within the bound", steady(3.0), steady(3.1), "unchanged"},
		{"slower beyond the bound", steady(3.0), steady(3.5), "regressed"},
		{"spread wider than the bound hides the answer", noisy(3.0), noisy(3.05), "unresolved"},
		{"wide spread, yet every run of the change beats every parent run", noisy(3.0), steady(2.0), "improved"},
		{"too few pairs to claim a gain", steady(3.0)[:4], steady(2.5)[:4], "unchanged"},
	} {
		if got := verdict(m, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricDef{name: "x", better: "higher", bound: 0.10}
	if got := verdict(higher, steady(3.0), steady(2.0)); got != "regressed" {
		t.Errorf("higher-is-better metric that fell: verdict %q, want regressed", got)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	def := workloads[2] // flow-xl: the quickest at toy sizes
	for _, path := range []string{parent, change} {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(def, smokeScale, 1, 1, traced, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, parent, change); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== " + def.name + " ==", "simulated results identical", "cell_wall_s", "allocs_per_cell", "flowsim.run_s", "calib"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository
// to the names, units and bounds this program reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d registered", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, registered %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d reported", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better || l.Bound != d.bound {
				t.Errorf("%s metric %d: listed %+v, reported %s [%s] %s %v", kind, i, l, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	layer := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		// per_layer entries carry a direction but no bound.
		layer[i] = metricDef{name: d.name, unit: d.unit, better: "lower"}
	}
	check("per_layer", spec.PerLayer, layer)
}
