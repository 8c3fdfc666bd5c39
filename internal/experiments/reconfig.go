package experiments

// The live-reconfiguration scenario sets: open-loop traffic over a
// fabric whose logical topology is swapped mid-run by the staged
// drain→transition→reconverge protocol (internal/reconfig).
// reconfig-sweep crosses transition pairs × routing strategy, including
// a growth step and an injected rollback; reconfig-under-load holds the
// fabric at high load under incast and permutation traffic and buckets
// FCT slowdowns before/during/after the disruption window. Everything
// derives from the seed, so rerunning with equal seeds is
// byte-identical at any -parallel worker count (the golden harness and
// the determinism tests pin this).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/projection"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

func init() {
	Register(150, "reconfig-sweep", "reconfig: live topology transitions (swap/growth/rollback) x strategy, degradation and cost columns",
		tableSet(ReconfigSweep), seedField, Knob("flows", "96"), workersField)
	Register(160, "reconfig-under-load", "reconfig: fat-tree transition under incast/permutation load, FCT before/during/after the disruption",
		tableSet(ReconfigUnderLoad), seedField, Knob("flows", "96"), Knob("load", "0.8"), Knob("reconfig", "dragonfly"), workersField)
}

// Transition geometry, relative to the flow schedule's injection window
// (open-loop schedules compress time, exactly as for the fault sweep):
// the transition fires mid-window, each of the drain and install stages
// spans an eighth of it, and the degraded route patch lands a
// thirty-second in — keeping drain losses, the patched interlude, and
// post-restore reconvergence all visible inside the traffic at any
// -flows value.
const (
	reconfigAtFrac      = 2  // transition at window / reconfigAtFrac
	reconfigStageFrac   = 8  // drain = install = window / reconfigStageFrac
	reconfigPatchFrac   = 32 // patch latency = window / reconfigPatchFrac
	errInjectedRollback = "injected validation failure"
)

// midWindowSpec builds the window-scaled one-transition spec; inject
// adds a validation hook that always fails, forcing a rollback at the
// commit point.
func midWindowSpec(target *topology.Graph, fs *loadgen.FlowSet, inject bool) *reconfig.Spec {
	window := fs.Flows[len(fs.Flows)-1].Start
	tr := reconfig.Transition{
		At:      window / reconfigAtFrac,
		Target:  target,
		Drain:   window / reconfigStageFrac,
		Install: window / reconfigStageFrac,
	}
	if inject {
		tr.Validate = func(*projection.Plan) error { return errors.New(errInjectedRollback) }
	}
	return &reconfig.Spec{
		Transitions:  []reconfig.Transition{tr},
		PatchLatency: window / reconfigPatchFrac,
	}
}

// ReconfigSweepCell is one (transition, strategy) grid point.
type ReconfigSweepCell struct {
	Src, Dst string
	Strategy string
	// Results.
	flowOutcome
	Outcome    string
	Links      int
	Churn      int
	Reconv     netsim.Time // -1 if never reconverged
	Entries    int
	ReconfigMs float64 // modelled controller downtime, ms
	HWCost     float64
}

// ReconfigSweepResult is the full grid.
type ReconfigSweepResult struct {
	Seed  int64
	Cells []ReconfigSweepCell
}

// ReconfigSweep runs seeded uniform open-loop traffic (scaled
// web-search sizes, load 0.3) on a fabric transitioning mid-run:
// fat-tree→dragonfly and back (the swap), 4x4→4x6 torus (growth), and
// fat-tree→torus with an injected validation failure (rollback), each
// under the source topology's Table III strategy and under generic
// shortest-path. Knobs: seed, flows (per cell), workers.
func ReconfigSweep(ctx context.Context, p JobSpec) (*ReconfigSweepResult, error) {
	seed, flows := p.Seed, p.Flows
	// A pair's two cells share its graphs: no run mutates a graph, and
	// a graph's lazy indexes are safe to build on first read from the
	// sweep's concurrent workers.
	pairs := []struct {
		src, dst *topology.Graph
		inject   bool
	}{
		{topology.FatTree(4), topology.Dragonfly(4, 9, 2, 1), false},
		{topology.Dragonfly(4, 9, 2, 1), topology.FatTree(4), false},
		{topology.Torus2D(4, 4, 1), topology.Torus2D(4, 6, 1), false},
		{topology.FatTree(4), topology.Torus2D(4, 4, 1), true},
	}
	sizes := loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64)
	const ranks = 16
	const load = 0.3

	res := &ReconfigSweepResult{Seed: seed}
	var jobs []core.Job
	for _, pair := range pairs {
		for _, generic := range []bool{false, true} {
			g, target := pair.src, pair.dst
			tb, err := core.PaperTestbed([]*topology.Graph{g, target})
			if err != nil {
				return nil, err
			}
			var strat routing.Strategy
			name := routing.ForTopology(g).Name()
			if generic {
				strat = routing.ShortestPath{}
				name = strat.Name()
			}
			cellSeed := seed + int64(len(res.Cells))
			fs, err := loadgen.Spec{
				Ranks: ranks, Pattern: loadgen.Uniform(), Sizes: sizes,
				Load: load, Flows: flows, Seed: cellSeed,
			}.Generate()
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, ReconfigSweepCell{
				Src: g.Name, Dst: target.Name, Strategy: name,
			})
			jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
				Topo: g, Flows: fs.Flows, Mode: core.FullTestbed,
				Strategy: strat, Reconfig: midWindowSpec(target, fs, pair.inject),
			}})
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	for i := range res.Cells {
		fillReconfigCell(&res.Cells[i], results[i], jobs[i].Flows)
	}
	return res, nil
}

// fillReconfigCell reads one run's transition + FCT results into a cell.
func fillReconfigCell(c *ReconfigSweepCell, r *core.RunResult, flows []netsim.Flow) {
	c.flowOutcome = outcomeOf(r, flows)
	c.Reconv = -1
	if len(r.Reconfig) == 0 {
		return
	}
	st := &r.Reconfig[0]
	c.Outcome = outcomeName(st)
	c.Links = len(st.Drained)
	c.Churn = st.TotalChurn()
	c.Reconv = st.Reconvergence()
	c.Entries = st.Entries
	c.ReconfigMs = st.ReconfigTime.Seconds() * 1e3
	c.HWCost = st.HardwareCost
}

// outcomeName is a stage's outcome without its reason: "committed",
// "rolled-back" or "rejected".
func outcomeName(st *reconfig.Stage) string {
	name, _, _ := strings.Cut(st.Outcome, ":")
	return name
}

// Format prints the reconfiguration sweep grid.
func (r *ReconfigSweepResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("reconfig: live topology transitions under uniform load 0.3 (drain window/8, install window/8, patch window/32, seed %d)", r.Seed))
	fmt.Fprintf(w, "%-16s %-16s %-16s %-11s %5s %6s %6s %10s %8s %9s %9s %8s\n",
		"from", "to", "strategy", "outcome", "links", "lost", "churn", "reconv", "entries", "reconfig", "hw-cost", "p99")
	for i := range r.Cells {
		c := &r.Cells[i]
		reconv, entries, reconf, hw := "-", "-", "-", "-"
		if c.Reconv >= 0 {
			reconv = fmt.Sprintf("%.0fus", float64(c.Reconv)/float64(netsim.Microsecond))
		}
		if c.Outcome == "committed" {
			entries = fmt.Sprintf("%d", c.Entries)
			reconf = fmt.Sprintf("%.1fms", c.ReconfigMs)
			hw = fmt.Sprintf("$%.0f", c.HWCost)
		}
		fmt.Fprintf(w, "%-16s %-16s %-16s %-11s %5d %6d %6d %10s %8s %9s %9s %7.2fx\n",
			c.Src, c.Dst, c.Strategy, c.Outcome, c.Links, c.Lost, c.Churn,
			reconv, entries, reconf, hw, c.P99)
	}
}

// ReconfigLoadRow is one (pattern, outcome) row of the under-load study.
type ReconfigLoadRow struct {
	Pattern string
	Flows   int
	// Results.
	Outcome    string
	Lost       int64
	Incomplete int
	Reconv     netsim.Time
	Entries    int
	ReconfigMs float64
	// FCT p99 slowdowns over flows started before, during, and after
	// the disruption window (drain → restore); a phase with no completed
	// flows reports 0.
	Before, During, After    float64
	BeforeN, DuringN, AfterN int
}

// reconfigTarget resolves a reconfig knob value to the constructor of
// the topology reconfig-under-load transitions to.
// JobSpec.Validate asks it too, so a bad name is refused at submit.
func reconfigTarget(name string) (func() *topology.Graph, error) {
	switch name {
	case "dragonfly":
		return func() *topology.Graph { return topology.Dragonfly(4, 9, 2, 1) }, nil
	case "torus":
		return func() *topology.Graph { return topology.Torus2D(4, 4, 1) }, nil
	}
	return nil, fmt.Errorf("unknown reconfig target %q (dragonfly|torus)", name)
}

// ReconfigUnderLoadResult is the §VI-C-style graceful-degradation study.
type ReconfigUnderLoadResult struct {
	Seed   int64
	Target string
	Rows   []ReconfigLoadRow
}

// ReconfigUnderLoad runs incast 8:1 and permutation traffic (64 kB
// flows, PFC, load 0.8) on the k=4 fat-tree while it transitions to the
// -reconfig target (dragonfly by default, or a 4x4 torus) mid-window —
// once committing, once with an injected validation failure forcing a
// rollback — and buckets FCT p99 slowdowns by whether the flow started
// before, during, or after the disruption window. Knobs: seed, flows,
// load, reconfig, workers.
func ReconfigUnderLoad(ctx context.Context, p JobSpec) (*ReconfigUnderLoadResult, error) {
	seed, flows, load := p.Seed, p.Flows, p.Load
	newTarget, err := reconfigTarget(p.Reconfig)
	if err != nil {
		return nil, fmt.Errorf("reconfig-under-load: %w", err)
	}
	const fanin = 8
	patterns := []struct {
		name  string
		pat   loadgen.Pattern
		ranks int
	}{
		{"incast-8:1", loadgen.Incast(fanin), fanin + 1},
		{"permutation", loadgen.Permutation(), 16},
	}

	res := &ReconfigUnderLoadResult{Seed: seed}
	var jobs []core.Job
	for _, pt := range patterns {
		for _, inject := range []bool{false, true} {
			g, target := topology.FatTree(4), newTarget()
			res.Target = target.Name
			tb, err := core.PaperTestbed([]*topology.Graph{g, target})
			if err != nil {
				return nil, err
			}
			rowSeed := seed + int64(len(res.Rows))
			fs, err := loadgen.Spec{
				Ranks: pt.ranks, Pattern: pt.pat, Sizes: loadgen.FixedSize(64 * 1024),
				Load: load, Flows: flows, Seed: rowSeed,
			}.Generate()
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, ReconfigLoadRow{Pattern: pt.name, Flows: flows})
			jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
				Topo: g, Flows: fs.Flows, Mode: core.FullTestbed, Reconfig: midWindowSpec(target, fs, inject),
			}})
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	for i := range res.Rows {
		row := &res.Rows[i]
		r := results[i]
		row.Incomplete = r.Incomplete
		row.Reconv = -1
		// Phase boundaries from the actual protocol timestamps, not the
		// spec: a rejected transition would leave the whole run "before".
		drainAt, restoreAt := netsim.Time(-1), netsim.Time(-1)
		if len(r.Reconfig) > 0 {
			st := &r.Reconfig[0]
			row.Outcome = outcomeName(st)
			row.Lost = r.FaultDrops
			row.Reconv = st.Reconvergence()
			row.Entries = st.Entries
			row.ReconfigMs = st.ReconfigTime.Seconds() * 1e3
			if row.Outcome != reconfig.OutcomeRejected {
				drainAt, restoreAt = st.DrainAt, st.RestoreAt
			}
		}
		var before, during, after []netsim.Flow
		for _, f := range jobs[i].Flows {
			switch {
			case drainAt < 0 || f.Start < drainAt:
				before = append(before, f)
			case restoreAt < 0 || f.Start < restoreAt:
				during = append(during, f)
			default:
				after = append(after, f)
			}
		}
		_, row.Before, row.BeforeN = slowdowns(before)
		_, row.During, row.DuringN = slowdowns(during)
		_, row.After, row.AfterN = slowdowns(after)
	}
	return res, nil
}

// Format prints the under-load degradation table.
func (r *ReconfigUnderLoadResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("reconfig: fat-tree-4 -> %s under load (64KB flows, PFC, seed %d); FCT p99 by flow start phase", r.Target, r.Seed))
	fmt.Fprintf(w, "%-12s %-11s %6s %6s %10s %10s %8s %9s %12s %12s %12s\n",
		"pattern", "outcome", "flows", "lost", "incompl", "reconv", "entries", "reconfig", "before p99", "during p99", "after p99")
	for i := range r.Rows {
		row := &r.Rows[i]
		reconv, entries, reconf := "-", "-", "-"
		if row.Reconv >= 0 {
			reconv = fmt.Sprintf("%.0fus", float64(row.Reconv)/float64(netsim.Microsecond))
		}
		if row.Outcome == "committed" {
			entries = fmt.Sprintf("%d", row.Entries)
			reconf = fmt.Sprintf("%.1fms", row.ReconfigMs)
		}
		phase := func(p float64, n int) string {
			if n == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx/%d", p, n)
		}
		fmt.Fprintf(w, "%-12s %-11s %6d %6d %10d %10s %8s %9s %12s %12s %12s\n",
			row.Pattern, row.Outcome, row.Flows, row.Lost, row.Incomplete, reconv, entries, reconf,
			phase(row.Before, row.BeforeN), phase(row.During, row.DuringN), phase(row.After, row.AfterN))
	}
}
