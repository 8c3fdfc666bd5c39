package main

// metricDef names one reported metric. BENCHMARK.json at the root of
// the repository lists the same names, units and bounds; the package's
// tests hold the two together.
type metricDef struct {
	name, unit string
	better     string  // end-to-end only: "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
	// span, for a per-layer time, names the spans of the traced cell
	// it sums: their self time, or their whole duration if inclusive.
	span      string
	inclusive bool
	// moves and on say which end-to-end metric the layer metric
	// should move, on which workloads ("exact" marks a count that a
	// performance-only change must leave alone).
	moves, on string
}

// endToEnd is what a user of the system sees: how long a cell takes,
// what it allocates, how much memory the process needs, and how long
// the inputs take to generate. Correctness (every operation succeeded,
// every repetition produced the same simulated results) is not a
// metric: it is the result line's correct/attempted/failed.
//
// The two times are the minimum over the run's repetitions, not the
// median: interference from the host only ever adds time, and on the
// two-core VM this was written on it comes in spells of tens of
// seconds that cover most of a run, so the minimum is the statistic
// that repeats (README.md, "Host noise"). The bounds are what that
// host can resolve, not what one would wish for.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cell_wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_cell", unit: "count", better: "lower", bound: 0.03},
	{name: "alloc_mb_per_cell", unit: "MB", better: "lower", bound: 0.03},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// perLayer is one figure per layer boundary the harness can see from
// outside. Layer names are the module names under internal/.
var perLayer = []metricDef{
	{name: "topology.build_s", unit: "s", span: "topology.build", moves: "cell_wall_s", on: "flow-xl (~3%); ~0 elsewhere"},
	{name: "topology.validate_s", unit: "s", span: "topology.validate", moves: "cell_wall_s", on: "flow-xl"},
	{name: "topology.zoo_s", unit: "s", span: "topology.zoo", moves: "setup_s", on: "ctl-reconfig"},
	{name: "loadgen.generate_s", unit: "s", span: "loadgen.generate", moves: "setup_s", on: "pkt-fabric, flow-xl"},
	{name: "workload.trace_build_s", unit: "s", span: "workload.trace_build", moves: "setup_s", on: "pkt-sdt-apps"},
	{name: "routing.compute_s", unit: "s", span: "routing.compute", moves: "cell_wall_s", on: "ctl-reconfig; <2% on pkt-*"},
	{name: "routing.prime_s", unit: "s", span: "routing.prime", moves: "cell_wall_s", on: "ctl-reconfig; <2% on pkt-*"},
	{name: "routing.compute_for_s", unit: "s", span: "routing.compute_for", moves: "cell_wall_s, alloc_mb_per_cell", on: "flow-xl (~40%)"},
	{name: "routing.rules", unit: "count", moves: "exact", on: "all"},
	{name: "routing.fib_forward_ns", unit: "ns/op", moves: "cell_wall_s", on: "pkt-fabric (~1%)"},
	{name: "routing.lookup_ns", unit: "ns/op", moves: "cell_wall_s", on: "flow-xl (path walker)"},
	{name: "engine.events", unit: "count", moves: "cell_wall_s", on: "pkt-* (exact today; falls if events per hop are folded)"},
	{name: "engine.pending_mean", unit: "count", moves: "explains engine.hold_ns_per_event", on: "pkt-*"},
	{name: "engine.pending_max", unit: "count", moves: "explains engine.hold_ns_per_event", on: "pkt-*"},
	{name: "engine.hold_ns_per_event", unit: "ns", moves: "cell_wall_s", on: "pkt-fabric, pkt-sdt-apps; none on flow-xl, ctl-reconfig"},
	{name: "engine.cancel_ns_per_op", unit: "ns", moves: "cell_wall_s", on: "pkt-sdt-apps (TCP part) only"},
	{name: "netsim.build_s", unit: "s", span: "netsim.build", moves: "cell_wall_s, allocs_per_cell", on: "pkt-* (<2%)"},
	{name: "netsim.loop_s", unit: "s", span: "netsim.loop", moves: "cell_wall_s", on: "pkt-*"},
	{name: "netsim.loop_ns_per_event", unit: "ns", moves: "cell_wall_s", on: "pkt-*"},
	{name: "netsim.self_ns_per_event", unit: "ns", moves: "cell_wall_s", on: "pkt-* (an estimate: loop minus the hold model)"},
	{name: "netsim.events_per_pkt_hop", unit: "ratio", moves: "cell_wall_s", on: "pkt-fabric"},
	{name: "netsim.allocs_per_kevent", unit: "count", moves: "allocs_per_cell", on: "pkt-sdt-apps"},
	{name: "netsim.pauses", unit: "count", moves: "digest (exact)", on: "pkt-*"},
	{name: "netsim.drops", unit: "count", moves: "digest (exact)", on: "pkt-*"},
	{name: "netsim.ecn_marks", unit: "count", moves: "digest (exact)", on: "pkt-*"},
	{name: "netsim.sdt_act_dev_pct", unit: "%", moves: "failed operations", on: "pkt-sdt-apps"},
	{name: "flowsim.run_s", unit: "s", span: "flowsim.run", moves: "cell_wall_s", on: "flow-xl (~50%)"},
	{name: "flowsim.us_per_recompute", unit: "us", moves: "cell_wall_s", on: "flow-xl"},
	{name: "flowsim.recomputes", unit: "count", moves: "exact", on: "flow-xl"},
	{name: "flowsim.pairs", unit: "count", moves: "exact", on: "flow-xl"},
	{name: "telemetry.measure_s", unit: "s", span: "telemetry.measure", moves: "cell_wall_s", on: "pkt-fabric, flow-xl (<1%)"},
	{name: "partition.cut_s", unit: "s", moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "partition.cut_calls", unit: "count", moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "partition.cut_edges", unit: "count", moves: "failed operations (fit failures; exact, quality must not fall)", on: "ctl-reconfig"},
	{name: "projection.projectable_s", unit: "s", span: "projection.projectable", moves: "cell_wall_s", on: "ctl-reconfig (~40%)"},
	{name: "projection.plan_cabling_s", unit: "s", span: "projection.plan_cabling", moves: "cell_wall_s", on: "ctl-reconfig; deploy share of pkt-sdt-apps"},
	{name: "projection.project_s", unit: "s", span: "projection.project", moves: "cell_wall_s", on: "ctl-reconfig; deploy share of pkt-sdt-apps"},
	{name: "projection.compile_tables_s", unit: "s", span: "projection.compile_tables", moves: "cell_wall_s", on: "ctl-reconfig; deploy share of pkt-sdt-apps"},
	{name: "projection.entries", unit: "count", moves: "exact", on: "ctl-reconfig, pkt-sdt-apps"},
	{name: "openflow.add_us_per_entry", unit: "us", moves: "cell_wall_s", on: "ctl-reconfig (~45% today)"},
	{name: "openflow.table_prime_s", unit: "s", span: "openflow.table_prime", moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "controller.new_s", unit: "s", span: "controller.new", inclusive: true, moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "controller.deploy_s", unit: "s", span: "controller.deploy", inclusive: true, moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "controller.reconfigure_s", unit: "s", span: "controller.reconfigure", inclusive: true, moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "controller.teardown_s", unit: "s", span: "controller.teardown", inclusive: true, moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "controller.deploy_self_s", unit: "s", span: "controller.deploy", moves: "cell_wall_s", on: "ctl-reconfig"},
	{name: "controller.model_deploy_ms", unit: "ms", moves: "digest (simulated time, exact)", on: "ctl-reconfig, pkt-sdt-apps"},
	{name: "core.unattributed_s", unit: "s", span: "core.cell", moves: "cell_wall_s", on: "all; should stay <10% of the cell"},
	{name: "core.cpu_s_per_cell", unit: "s", moves: "diverges from cell_wall_s once a layer goes parallel", on: "all"},
	{name: "core.trace_overhead_frac", unit: "ratio", moves: "-", on: "all"},
}

// fillSpanTimes adds every span-backed per-layer time of the traced
// cell to lm.
func fillSpanTimes(lm layerMetrics, tr *tracer) {
	incl, self := spanTotals(tr.spans, tr.cell)
	for _, m := range perLayer {
		switch {
		case m.span == "":
		case m.inclusive:
			lm[m.name] = incl[m.span].Seconds()
		default:
			lm[m.name] = self[m.span].Seconds()
		}
	}
}
