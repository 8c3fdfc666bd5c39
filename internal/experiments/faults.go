package experiments

// The fault-injection scenario sets: open-loop traffic over fabrics
// that lose links mid-run, with the reactive controller
// repairing routes around each outage. faults-sweep crosses topology ×
// routing strategy × fault count; faults-flap stresses a single
// MTBF/MTTR-flapping link under incast. Everything — flow schedules,
// fault times, failed-link choices — derives from the seed, so
// rerunning with equal seeds is byte-identical at any -parallel worker
// count (the golden harness and the determinism tests pin this).

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

func init() {
	Register(120, "faults-sweep", "faults: link failures + controller reroute, topology x strategy x fault count, FCT and recovery",
		tableSet(FaultSweep), seedField, Knob("flows", "96"), Knob("faults", "0"), workersField)
	Register(130, "faults-flap", "faults: single-link MTBF/MTTR flapping under incast, recovery metrics per flap rate",
		tableSet(FaultFlap), seedField, Knob("flows", "96"), Knob("mtbf_ms", "0"), workersField)
}

// Sweep fault geometry, relative to the flow schedule's injection
// window: open-loop schedules compress time (the 16-rank uniform grid
// injects its whole load in tens of microseconds), so the sweep scales
// the outage and the controller's detection+install latency with the
// window rather than using wall-realistic constants — each outage lasts
// a quarter of the window and repair lands after a sixteenth, keeping
// the loss→repair→reroute→heal sequence visible inside the traffic at
// any -flows value. faults-flap keeps the realistic default latency:
// its incast window spans tens of milliseconds.
const (
	sweepOutageFrac = 4  // outage = window / sweepOutageFrac
	sweepRepairFrac = 16 // repair latency = window / sweepRepairFrac
)

// FaultSweepCell is one (topology, strategy, fault count) grid point.
type FaultSweepCell struct {
	Topo     string
	Strategy string
	Faults   int
	Flows    int
	// Results.
	flowOutcome
	Churn   int // rules added+removed across all repairs
	Reconv  netsim.Time
	ReconvN int
}

// FaultSweepResult is the full grid.
type FaultSweepResult struct {
	Seed  int64
	Cells []FaultSweepCell
}

// FaultSweep runs seeded uniform open-loop traffic (scaled web-search
// sizes, load 0.3) on fat-tree, dragonfly and 2D torus, under each
// topology's Table III strategy and under generic shortest-path, while
// {1, 2, 4} seeded core links fail one-shot for 1 ms each, spread
// across the flow window; the reactive controller repairs after the
// default detection latency. Knobs: seed, flows (per cell), faults
// (> 0 replaces the fault-count axis), workers.
func FaultSweep(ctx context.Context, p JobSpec) (*FaultSweepResult, error) {
	seed, flows := p.Seed, p.Flows
	faultCounts := []int{1, 2, 4}
	if p.Faults > 0 {
		faultCounts = []int{p.Faults}
	}
	topos := []*topology.Graph{
		topology.FatTree(4),
		topology.Dragonfly(4, 9, 2, 1),
		topology.Torus2D(4, 4, 1),
	}
	sizes := loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64)
	const ranks = 16
	const load = 0.3

	res := &FaultSweepResult{Seed: seed}
	var jobs []core.Job
	for _, g := range topos {
		tb, err := core.PaperTestbed([]*topology.Graph{g})
		if err != nil {
			return nil, err
		}
		for _, strat := range []routing.Strategy{nil, routing.ShortestPath{}} {
			name := routing.ForTopology(g).Name()
			if strat != nil {
				name = strat.Name()
			}
			for _, nf := range faultCounts {
				cellSeed := seed + int64(len(res.Cells))
				fs, err := loadgen.Spec{
					Ranks: ranks, Pattern: loadgen.Uniform(), Sizes: sizes,
					Load: load, Flows: flows, Seed: cellSeed,
				}.Generate()
				if err != nil {
					return nil, err
				}
				spec, err := oneShotLinkFaults(g, nf, cellSeed, fs)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, FaultSweepCell{
					Topo: g.Name, Strategy: name, Faults: nf, Flows: flows,
				})
				jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
					Topo: g, Flows: fs.Flows, Mode: core.FullTestbed,
					Strategy: strat, Faults: spec,
				}})
			}
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		c.flowOutcome = outcomeOf(results[i], jobs[i].Flows)
		c.Churn, c.Reconv, c.ReconvN = faultStats(results[i].Faults)
	}
	return res, nil
}

// oneShotLinkFaults builds the sweep's fault spec: nf distinct seeded
// core links fail at times evenly spread across the flow schedule's
// injection window, each healing after a quarter of the window; the
// repair latency scales with the window (see the fraction constants).
func oneShotLinkFaults(g *topology.Graph, nf int, seed int64, fs *loadgen.FlowSet) (*faults.Spec, error) {
	edges := faults.PickCoreEdges(g, nf, seed)
	if len(edges) < nf {
		return nil, fmt.Errorf("faults: topology %q has only %d core edges, need %d", g.Name, len(edges), nf)
	}
	window := fs.Flows[len(fs.Flows)-1].Start
	outage := window / sweepOutageFrac
	repair := window / sweepRepairFrac
	if repair < netsim.Microsecond {
		repair = netsim.Microsecond
	}
	if outage <= repair {
		outage = 2 * repair
	}
	spec := &faults.Spec{Seed: seed, RepairLatency: repair}
	for i, e := range edges {
		at := window * netsim.Time(i+1) / netsim.Time(nf+1)
		spec.Events = append(spec.Events,
			faults.Event{At: at, Kind: faults.LinkDown, Elem: e},
			faults.Event{At: at + outage, Kind: faults.LinkUp, Elem: e},
		)
	}
	return spec, nil
}

// faultStats sums a run's repair churn and averages reconvergence over
// the n faults that reconverged (mean is 0 when none did).
func faultStats(recs []faults.Record) (churn int, mean netsim.Time, n int) {
	for i := range recs {
		churn += recs[i].RulesChanged
		if d := recs[i].Reconvergence(); d >= 0 {
			mean += d
			n++
		}
	}
	if n > 0 {
		mean /= netsim.Time(n)
	}
	return churn, mean, n
}

// reconvColumn renders a mean reconvergence over n faults, "-" when
// none reconverged.
func reconvColumn(mean netsim.Time, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fus", float64(mean)/float64(netsim.Microsecond))
}

// Format prints the fault sweep grid.
func (r *FaultSweepResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("faults: link failures with controller reroute (uniform load 0.3, outages window/4, repair window/16, seed %d)", r.Seed))
	fmt.Fprintf(w, "%-16s %-16s %6s %6s %9s %6s %6s %6s %10s %8s %8s\n",
		"topology", "strategy", "faults", "flows", "completed", "lost", "drops", "churn", "reconv", "p50", "p99")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "%-16s %-16s %6d %6d %9d %6d %6d %6d %10s %7.2fx %7.2fx\n",
			c.Topo, c.Strategy, c.Faults, c.Flows, c.Completed,
			c.Lost, c.Drops, c.Churn, reconvColumn(c.Reconv, c.ReconvN), c.P50, c.P99)
	}
}

// FaultFlapRow is one MTBF point of the flap study.
type FaultFlapRow struct {
	MTBF, MTTR netsim.Time
	// Edge is the flapping uplink (the victim is seeded per row, so
	// each row flaps its own victim's ToR uplink).
	Edge  int
	Downs int // link-down events in the run's fault records
	Flows int
	flowOutcome
	Churn   int
	Reconv  netsim.Time
	ReconvN int
}

// FaultFlapResult is the §VI-C-style incast study under a flapping
// uplink.
type FaultFlapResult struct {
	Seed int64
	Rows []FaultFlapRow
}

// FaultFlap runs incast 8:1 (64 kB flows, PFC, load 0.8) on the k=4
// fat-tree while one uplink of the victim's ToR flaps with exponential
// MTBF/MTTR (MTTR = MTBF/4), the reactive controller repairing after
// each transition. Rows sweep MTBF over {1, 2, 4, 8} ms. Knobs: seed,
// flows, mtbf_ms (> 0 replaces the MTBF axis), workers.
func FaultFlap(ctx context.Context, p JobSpec) (*FaultFlapResult, error) {
	seed, flows := p.Seed, p.Flows
	mtbfs := []netsim.Time{netsim.Millisecond, 2 * netsim.Millisecond, 4 * netsim.Millisecond, 8 * netsim.Millisecond}
	if p.MTBFMs > 0 {
		mtbfs = []netsim.Time{p.mtbf()}
	}
	const fanin = 8
	g := topology.FatTree(4)
	tb, err := core.PaperTestbed([]*topology.Graph{g})
	if err != nil {
		return nil, err
	}
	// Explicit rank placement (the same deterministic spread Run would
	// pick) so the victim's host vertex — and with it the flapping
	// uplink — is known before the run.
	hosts := core.PickSpread(g.Hosts(), fanin+1)

	res := &FaultFlapResult{Seed: seed}
	var jobs []core.Job
	for i, mtbf := range mtbfs {
		fs, err := loadgen.Spec{
			Ranks: fanin + 1, Pattern: loadgen.Incast(fanin),
			Sizes: loadgen.FixedSize(64 * 1024),
			Load:  0.8, Flows: flows, Seed: seed + int64(i),
		}.Generate()
		if err != nil {
			return nil, err
		}
		// The flapping link: the lowest-ID uplink of this row's victim.
		victim := hosts[fs.Flows[0].Dst]
		tor := g.HostSwitch(victim)
		edge := -1
		csr := g.CSR()
		for i := csr.Start[tor]; i < csr.Start[tor+1]; i++ {
			if eid := int(csr.Edge[i]); g.Vertices[csr.Nbr[i]].Kind == topology.Switch && (edge < 0 || eid < edge) {
				edge = eid
			}
		}
		if edge < 0 {
			return nil, fmt.Errorf("faults-flap: victim ToR %d has no uplink", tor)
		}
		spec := &faults.Spec{
			Flaps:   []faults.Flap{{Link: edge, MTBF: mtbf, MTTR: mtbf / 4}},
			Horizon: fs.Flows[len(fs.Flows)-1].Start,
			Seed:    seed + int64(i),
		}
		res.Rows = append(res.Rows, FaultFlapRow{MTBF: mtbf, MTTR: mtbf / 4, Edge: edge, Flows: flows})
		jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
			Topo: g, Flows: fs.Flows, Mode: core.FullTestbed, Hosts: hosts, Faults: spec,
		}})
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	for i := range res.Rows {
		row := &res.Rows[i]
		for _, rec := range results[i].Faults {
			if rec.Kind == faults.LinkDown {
				row.Downs++
			}
		}
		row.flowOutcome = outcomeOf(results[i], jobs[i].Flows)
		row.Churn, row.Reconv, row.ReconvN = faultStats(results[i].Faults)
	}
	return res, nil
}

// Format prints the flap table.
func (r *FaultFlapResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("faults: incast 8:1 under a flapping ToR uplink (64KB flows, PFC, seed %d)", r.Seed))
	fmt.Fprintf(w, "%8s %8s %5s %6s %6s %9s %6s %6s %10s %9s %8s\n",
		"MTBF", "MTTR", "edge", "downs", "flows", "completed", "lost", "churn", "reconv", "p99 slow", "pauses")
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(w, "%6.1fms %6.2fms %5d %6d %6d %9d %6d %6d %10s %8.2fx %8d\n",
			float64(row.MTBF)/float64(netsim.Millisecond),
			float64(row.MTTR)/float64(netsim.Millisecond),
			row.Edge, row.Downs, row.Flows, row.Completed, row.Lost, row.Churn,
			reconvColumn(row.Reconv, row.ReconvN), row.P99, row.Pauses)
	}
}
