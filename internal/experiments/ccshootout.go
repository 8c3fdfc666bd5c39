package experiments

// The cc-shootout scenario set: the three host congestion-control
// policies (DCQCN, Timely-style delay CC, pFabric-style size priority
// — see internal/netsim/cc.go) raced over the same seeded open-loop
// schedules, with and without a link fault, so their FCT tails and PFC
// pause behaviour are directly comparable cell by cell. Per-policy
// fabric configuration rides Scenario.SimConfig, so one registered set
// sweeps all three without touching the testbed default.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/topology"
)

func init() {
	Register(117, "cc-shootout", "cc: DCQCN vs Timely vs pFabric, pattern x load x faults grid on fat-tree, FCT and pauses",
		tableSet(CCShootout), seedField, Knob("flows", "96"), Knob("cc", ""), workersField)
}

// CCShootoutCell is one (policy, pattern, load, faults) grid point.
type CCShootoutCell struct {
	CC      string
	Pattern string
	Load    float64
	Faults  int
	Flows   int
	// Results.
	flowOutcome
	Reconv  netsim.Time
	ReconvN int
}

// CCShootoutResult is the full grid.
type CCShootoutResult struct {
	Seed  int64
	Cells []CCShootoutCell
}

// CCShootout races the CC policies over uniform, permutation and
// incast 8:1 traffic (scaled web-search sizes, 16 ranks) on the k=4
// fat-tree at loads {0.3, 0.7}, each cell with zero and one seeded
// core-link fault (same one-shot geometry as faults-sweep). Every cell
// reruns the identical seeded schedule, so the only difference between
// two rows of a (pattern, load, faults) block is the policy. Knobs:
// seed, flows (per cell), cc ("" = all three policies), workers.
func CCShootout(ctx context.Context, p JobSpec) (*CCShootoutResult, error) {
	seed, flows := p.Seed, p.Flows
	policies := netsim.CCPolicies()
	if p.CC != "" {
		policies = []string{p.CC}
	}
	patterns := []loadgen.Pattern{loadgen.Uniform(), loadgen.Permutation(), loadgen.Incast(8)}
	loads := []float64{0.3, 0.7}
	faultCounts := []int{0, 1}
	g := topology.FatTree(4)
	sizes := loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64)
	const ranks = 16

	tb, err := core.PaperTestbed([]*topology.Graph{g})
	if err != nil {
		return nil, err
	}
	res := &CCShootoutResult{Seed: seed}
	var jobs []core.Job
	for _, pat := range patterns {
		for _, load := range loads {
			for _, nf := range faultCounts {
				// One schedule and one fault draw per (pattern, load,
				// faults) block, replayed identically under every
				// policy: the block seed skips the per-policy index.
				blockSeed := seed + int64(len(res.Cells)/len(policies))
				for _, policy := range policies {
					fs, err := loadgen.Spec{
						Ranks: ranks, Pattern: pat, Sizes: sizes,
						Load: load, Flows: flows, Seed: blockSeed,
					}.Generate()
					if err != nil {
						return nil, err
					}
					var spec *faults.Spec
					if nf > 0 {
						if spec, err = oneShotLinkFaults(g, nf, blockSeed, fs); err != nil {
							return nil, err
						}
					}
					// The default lossless fabric; DCQCN's ECN marking
					// follows from the policy.
					cfg := netsim.DefaultConfig()
					cfg.CC = policy
					res.Cells = append(res.Cells, CCShootoutCell{
						CC: policy, Pattern: pat.Name(), Load: load, Faults: nf, Flows: flows,
					})
					jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
						Topo: g, Flows: fs.Flows, Mode: core.FullTestbed,
						SimConfig: &cfg, Faults: spec,
					}})
				}
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
		_, c.Reconv, c.ReconvN = faultStats(results[i].Faults)
	}
	return res, nil
}

// Format prints the shootout grid, one row per cell.
func (r *CCShootoutResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf("cc: DCQCN vs Timely vs pFabric (fat-tree k=4, scaled web-search sizes, seed %d)", r.Seed))
	fmt.Fprintf(w, "%-8s %-12s %5s %6s %6s %9s %6s %6s %8s %10s %8s %8s\n",
		"cc", "pattern", "load", "faults", "flows", "completed", "lost", "drops", "pauses", "reconv", "p50", "p99")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "%-8s %-12s %5.1f %6d %6d %9d %6d %6d %8d %10s %7.2fx %7.2fx\n",
			c.CC, c.Pattern, c.Load, c.Faults, c.Flows, c.Completed,
			c.Lost, c.Drops, c.Pauses, reconvColumn(c.Reconv, c.ReconvN), c.P50, c.P99)
		if c.Incomplete > 0 {
			fmt.Fprintf(w, "%-8s   (%d flows incomplete)\n", "", c.Incomplete)
		}
	}
}
