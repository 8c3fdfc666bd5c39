package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	Register(60, "fig13", "Fig. 13: evaluation-time scaling, full testbed vs simulator vs SDT",
		tableSet(func(ctx context.Context, p JobSpec) (*Fig13Result, error) {
			return Fig13(ctx, nil, p.Bytes, p.Reps, p.Workers)
		}),
		Knob("bytes", "262144"), Knob("reps", "8"), workersField)
}

// Fig13Point is one node count of the evaluation-time scaling study.
type Fig13Point struct {
	Nodes int
	// RealACT is the application completion time on the (full) testbed
	// — the x-axis annotation of Fig. 13.
	RealACT netsim.Time
	// Evaluation times per platform.
	FullEval time.Duration
	SDTEval  time.Duration
	SimEval  time.Duration
	// Normalised to the full testbed (the figure's y-axis).
	SDTFactor float64
	SimFactor float64
}

// Fig13Result reproduces Fig. 13: evaluation times of full testbed,
// simulator and SDT running IMB Alltoall on Dragonfly(4,9,2) as the
// node count grows.
type Fig13Result struct {
	Points []Fig13Point
}

// Fig13 sweeps node counts (paper: 1–32; node counts below 2 exchange
// no traffic, so the sweep starts at 2). bytes/reps scale the
// alltoall. The full-testbed and SDT runs of every node count are jobs
// of one core.Sweep (one simulation per worker;
// each point owns its testbed so SDT deployments never contend). The
// full testbed evaluates in its ACT, SDT in deploy + ACT, and the
// simulator in the wall clock the full-testbed job burned. Simulated
// results are identical at any worker count; the simulator's column
// measures contended time when workers > 1, so use workers == 1 for
// absolute Fig. 13 numbers.
func Fig13(ctx context.Context, nodeCounts []int, bytes, reps, workers int) (*Fig13Result, error) {
	if nodeCounts == nil {
		nodeCounts = []int{2, 4, 8, 16, 32}
	}
	g := topology.Dragonfly(4, 9, 2, 1)
	modes := []core.Mode{core.FullTestbed, core.SDT}
	var jobs []core.Job
	for _, n := range nodeCounts {
		tr := workload.Alltoall(n, bytes, reps)
		tb, err := core.PaperTestbed([]*topology.Graph{g})
		if err != nil {
			return nil, err
		}
		hosts := g.Hosts()[:n]
		for _, mode := range modes {
			jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
				Topo: g, Trace: tr, Hosts: hosts, Mode: mode,
			}})
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	points := make([]Fig13Point, len(nodeCounts))
	for i, n := range nodeCounts {
		full, sdt := results[2*i], results[2*i+1]
		fullEval := time.Duration(int64(full.ACT) / 1000) // ps -> ns
		sdtEval := time.Duration(int64(sdt.ACT)/1000) + sdt.Deploy
		points[i] = Fig13Point{
			Nodes: n, RealACT: full.ACT,
			FullEval: fullEval, SDTEval: sdtEval, SimEval: full.Wall,
			SDTFactor: float64(sdtEval) / float64(fullEval),
			SimFactor: float64(full.Wall) / float64(fullEval),
		}
	}
	return &Fig13Result{Points: points}, nil
}

// Format prints the simulated half of the Fig. 13 series: the real
// ACT and the modelled full-testbed and SDT evaluation times, the same
// bytes on every host.
func (r *Fig13Result) Format(w io.Writer) {
	writeHeader(w, "Fig. 13: evaluation times — full testbed vs simulator vs SDT (IMB Alltoall on Dragonfly)")
	fmt.Fprintf(w, "%6s %12s %14s %14s %10s\n",
		"nodes", "real ACT", "full eval", "SDT eval", "SDT/full")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6d %10.2fms %14s %14s %9.2fx\n",
			p.Nodes,
			float64(p.RealACT)/float64(netsim.Millisecond),
			p.FullEval.Round(time.Microsecond),
			p.SDTEval.Round(time.Microsecond),
			p.SDTFactor)
	}
}

// formatMeasured prints the simulator's own evaluation time — this
// host's wall clock — and its ratio to the full testbed.
func (r *Fig13Result) formatMeasured(w io.Writer, workers int) {
	writeMeasuredHeader(w, "Fig. 13: simulator evaluation time", workers)
	fmt.Fprintf(w, "%6s %14s %10s\n", "nodes", "sim eval", "sim/full")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6d %14s %9.1fx\n",
			p.Nodes, p.SimEval.Round(time.Microsecond), p.SimFactor)
	}
}
