package experiments

// The loadgen scenario sets: open-loop synthetic traffic (package
// loadgen) driven through the netsim flow-application layer, with flow
// completion times bucketed by telemetry.MeasureFCT. These are the
// testbed's first non-MPI workloads — datacenter-style Poisson flow
// arrivals swept over pattern × load grids — and everything is seeded,
// so rerunning with the same seed reproduces every byte of output.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func init() {
	Register(100, "loadgen-sweep", "loadgen: seeded open-loop FCT sweep, pattern x load grid on fat-tree/dragonfly/torus",
		tableSet(LoadSweep), seedField, Knob("flows", "160"), workersField)
	Register(110, "loadgen-incast", "loadgen: incast N:1 fan-in sweep on fat-tree, FCT tail at the victim under PFC",
		tableSet(LoadIncast), seedField, Knob("flows", "96"), Knob("load", "0.8"), workersField)
}

// sweepBuckets are the FCT size-bucket boundaries of the loadgen
// tables: short (<10 kB), medium (<100 kB), long (>= 100 kB) — matched
// to the scaled web-search distribution the sweep offers.
func sweepBuckets() []int { return []int{10 * 1024, 100 * 1024} }

// measureFCT buckets a finished schedule by size (nil bounds =
// telemetry's default buckets) on the default fabric. Slowdown
// normalises against the zero-load latency floor: NIC latency at both
// ends plus the shortest possible path (one switch, two links). It is
// measured against the minimum achievable FCT, so the base must not
// exceed any real path — longer routes simply show up as slowdown, as
// they should.
func measureFCT(flows []netsim.Flow, bounds []int) *telemetry.FCTReport {
	cfg := netsim.DefaultConfig()
	base := 2*cfg.HostLatency + cfg.SwitchLatency + 2*cfg.PropDelay
	return telemetry.MeasureFCT(flows, cfg.LinkBps, base, bounds)
}

// slowdowns reads the FCT slowdown p50 and p99 over a schedule's
// completed flows (0 when none completed) and how many completed.
func slowdowns(flows []netsim.Flow) (p50, p99 float64, completed int) {
	rep := measureFCT(flows, []int{}) // one bucket: every size
	return rep.Buckets[0].P50, rep.Buckets[0].P99, rep.Completed
}

// flowOutcome is what the open-loop sets read from one run of a
// schedule.
type flowOutcome struct {
	Completed  int
	Incomplete int
	Lost       int64 // packets dropped by dead or drained elements
	Drops      int64 // congestion / table-miss drops (post-repair blackholes)
	Pauses     int64
	P50, P99   float64 // FCT slowdown percentiles over completed flows
}

// outcomeOf reads run r of the schedule flows.
func outcomeOf(r *core.RunResult, flows []netsim.Flow) flowOutcome {
	o := flowOutcome{Incomplete: r.Incomplete, Lost: r.FaultDrops, Drops: r.Drops, Pauses: r.Pauses}
	o.P50, o.P99, o.Completed = slowdowns(flows)
	return o
}

// LoadSweepCell is one (topology, pattern, load) grid point.
type LoadSweepCell struct {
	Topo    string
	Pattern string
	Load    float64
	Flows   int
	Drops   int64
	FCT     *telemetry.FCTReport
}

// LoadSweepResult is the full grid.
type LoadSweepResult struct {
	Seed  int64
	Cells []LoadSweepCell
}

// LoadSweep sweeps open-loop traffic over load 0.1→0.9 for three
// patterns (uniform, permutation, incast 8:1) on fat-tree, dragonfly
// and 2D torus — every cell an independent seeded schedule of
// heavy-tailed (scaled web-search) flows run through core.Sweep, with
// per-size-bucket FCT slowdown percentiles. Knobs: seed offsets every
// cell's schedule seed, flows sets the flow count per cell, workers
// fans the grid out one simulation per worker.
func LoadSweep(ctx context.Context, p JobSpec) (*LoadSweepResult, error) {
	seed, flows := p.Seed, p.Flows
	topos := []*topology.Graph{
		topology.FatTree(4),
		topology.Dragonfly(4, 9, 2, 1),
		topology.Torus2D(4, 4, 1),
	}
	patterns := []loadgen.Pattern{loadgen.Uniform(), loadgen.Permutation(), loadgen.Incast(8)}
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	sizes := loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64)
	const ranks = 16

	res := &LoadSweepResult{Seed: seed}
	var jobs []core.Job
	for _, g := range topos {
		tb, err := core.PaperTestbed([]*topology.Graph{g})
		if err != nil {
			return nil, err
		}
		for _, pat := range patterns {
			for _, load := range loads {
				fs, err := loadgen.Spec{
					Ranks: ranks, Pattern: pat, Sizes: sizes,
					Load: load, Flows: flows, Seed: seed + int64(len(res.Cells)),
				}.Generate()
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, LoadSweepCell{
					Topo: g.Name, Pattern: pat.Name(), Load: load, Flows: flows,
				})
				jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
					Topo: g, Flows: fs.Flows, Mode: core.FullTestbed,
				}})
			}
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	for i := range res.Cells {
		res.Cells[i].Drops = results[i].Drops
		res.Cells[i].FCT = measureFCT(jobs[i].Flows, sweepBuckets())
	}
	return res, nil
}

// Format prints the sweep grid: one row per cell, slowdown p50/p99 per
// size bucket.
func (r *LoadSweepResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("loadgen: open-loop FCT sweep (scaled web-search sizes, seed %d)", r.Seed))
	fmt.Fprintf(w, "%-16s %-12s %5s %6s %6s  %15s %15s %15s\n",
		"topology", "pattern", "load", "flows", "drops", "<10K p50/p99", "10-100K p50/p99", ">=100K p50/p99")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "%-16s %-12s %5.1f %6d %6d ", c.Topo, c.Pattern, c.Load, c.Flows, c.Drops)
		for _, b := range c.FCT.Buckets {
			if b.Count == 0 {
				fmt.Fprintf(w, " %15s", "-")
				continue
			}
			fmt.Fprintf(w, " %7.2f/%-7.2f", b.P50, b.P99)
		}
		if c.FCT.Completed < c.FCT.Total {
			fmt.Fprintf(w, "  (%d/%d completed)", c.FCT.Completed, c.FCT.Total)
		}
		fmt.Fprintln(w)
	}
}

// LoadIncastRow is one fan-in of the incast stress.
type LoadIncastRow struct {
	Fanin  int
	Flows  int
	P50FCT netsim.Time
	P99FCT netsim.Time
	P99    float64
	Pauses int64
	Drops  int64
}

// LoadIncastResult is the §VI-C-style incast study over loadgen
// schedules.
type LoadIncastResult struct {
	Seed int64
	Load float64
	Rows []LoadIncastRow
}

// LoadIncast sweeps incast fan-in N:1 ∈ {4, 8, 15} on the k=4
// fat-tree: fixed 64 kB flows arriving open-loop at the victim's link
// (load, a fraction of line rate), PFC on — the pattern whose pause
// cascades Fig. 12 measures, now with an FCT tail instead of aggregate
// bandwidth. Knobs: seed, flows (per fan-in), load, workers.
func LoadIncast(ctx context.Context, p JobSpec) (*LoadIncastResult, error) {
	seed, flows, load := p.Seed, p.Flows, p.Load
	fanins := []int{4, 8, 15}
	g := topology.FatTree(4)
	tb, err := core.PaperTestbed([]*topology.Graph{g})
	if err != nil {
		return nil, err
	}
	var jobs []core.Job
	for i, fanin := range fanins {
		fs, err := loadgen.Spec{
			Ranks: fanin + 1, Pattern: loadgen.Incast(fanin),
			Sizes: loadgen.FixedSize(64 * 1024),
			Load:  load, Flows: flows, Seed: seed + int64(i),
		}.Generate()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
			Topo: g, Flows: fs.Flows, Mode: core.FullTestbed,
		}})
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	res := &LoadIncastResult{Seed: seed, Load: load}
	for i, fanin := range fanins {
		rep := measureFCT(jobs[i].Flows, nil)
		var row LoadIncastRow
		row.Fanin = fanin
		row.Flows = flows
		row.Pauses = results[i].Pauses
		row.Drops = results[i].Drops
		// All flows are FixedSize(64 kB): read the bucket that size
		// falls in rather than scanning for a non-empty one.
		for _, b := range rep.Buckets {
			if b.Lo <= 64*1024 && (b.Hi == 0 || 64*1024 < b.Hi) {
				row.P50FCT, row.P99FCT, row.P99 = b.P50FCT, b.P99FCT, b.P99
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format prints the incast FCT table.
func (r *LoadIncastResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("loadgen: incast N:1 FCT tail, 64KB flows at %.0f%% victim load (fat-tree k=4, PFC, seed %d)",
		r.Load*100, r.Seed))
	fmt.Fprintf(w, "%6s %6s %12s %12s %9s %8s %6s\n",
		"fan-in", "flows", "p50 FCT", "p99 FCT", "p99 slow", "pauses", "drops")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6d %6d %10.2fus %10.2fus %8.2fx %8d %6d\n",
			row.Fanin, row.Flows,
			float64(row.P50FCT)/float64(netsim.Microsecond),
			float64(row.P99FCT)/float64(netsim.Microsecond),
			row.P99, row.Pauses, row.Drops)
	}
}
