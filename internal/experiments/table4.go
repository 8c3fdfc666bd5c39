package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	Register(50, "table4", "Table IV: application ACTs on SDT vs the simulator",
		tableSet(func(ctx context.Context, p JobSpec) (*Table4Result, error) {
			return Table4(ctx, p.Ranks, nil, p.Workers)
		}),
		Knob("ranks", "16"), workersField)
}

// Table4Cell is one (application, topology) evaluation: ACT on SDT vs
// the simulator, the deviation, and the evaluation-time speedup — the
// paper's "Ax (B%)" cells.
type Table4Cell struct {
	App      string
	Topology string
	Ranks    int
	ACTSDT   netsim.Time
	ACTSim   netsim.Time
	// Deviation is |ACTSDT-ACTSim|/ACTSim (paper: <= 3%).
	Deviation float64
	// EvalSDT is deploy+ACT; EvalSim is the simulator's wall clock:
	// the host time the full-testbed run burned.
	EvalSDT time.Duration
	EvalSim time.Duration
	// Speedup = EvalSim / EvalSDT (paper: up to 2899x at their scale).
	Speedup float64
}

// Table4Result reproduces Table IV.
type Table4Result struct {
	Cells []Table4Cell
	// MaxDeviation is the headline ACT agreement (paper: max 3%).
	MaxDeviation float64
}

// table4Topologies are the §VI-D evaluation topologies.
func table4Topologies() []*topology.Graph {
	return []*topology.Graph{
		topology.Dragonfly(4, 9, 2, 1),
		topology.FatTree(4),
		topology.Torus2D(5, 5, 1),
		topology.Torus3D(4, 4, 4, 1),
	}
}

// Table4 runs the application sweep with `ranks` MPI ranks per run
// (the paper uses up to 32; smaller values preserve the comparison and
// run much faster). apps of nil means all Table IV applications. Every
// (application, topology) cell contributes an SDT and a full-testbed
// job to one core.Sweep — one simulation per worker; Sweep makes the
// per-topology testbeds' SDT deployments serially (deploying mutates
// the controller; afterwards it is read-only) — so the
// deterministic columns (ACTs, deviation, SDT evaluation time) are
// identical at any worker count. The full-testbed job stands for the
// simulator: same fabric, and its wall clock is the simulator's
// evaluation time.
func Table4(ctx context.Context, ranks int, apps []string, workers int) (*Table4Result, error) {
	if apps == nil {
		apps = workload.TableIVApps()
	}
	type cell struct {
		g   *topology.Graph
		app string
		n   int
	}
	var cellsIn []cell
	var jobs []core.Job
	for _, g := range table4Topologies() {
		n := ranks
		if h := g.NumHosts(); n > h {
			n = h
		}
		tb, err := testbedSizedFor(g)
		if err != nil {
			return nil, err
		}
		hosts := g.Hosts()[:n]
		for _, app := range apps {
			tr, err := workload.ByName(app, n)
			if err != nil {
				return nil, err
			}
			cellsIn = append(cellsIn, cell{g: g, app: app, n: n})
			for _, mode := range []core.Mode{core.SDT, core.FullTestbed} {
				jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
					Topo: g, Trace: tr, Hosts: hosts, Mode: mode,
				}})
			}
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	cells := make([]Table4Cell, len(cellsIn))
	for i, c := range cellsIn {
		sdt, sim := results[2*i], results[2*i+1]
		dev := math.Abs(float64(sdt.ACT-sim.ACT)) / float64(sim.ACT)
		evalSDT := time.Duration(int64(sdt.ACT)/1000) + sdt.Deploy // ps -> ns
		cells[i] = Table4Cell{
			App: c.app, Topology: c.g.Name, Ranks: c.n,
			ACTSDT: sdt.ACT, ACTSim: sim.ACT, Deviation: dev,
			EvalSDT: evalSDT, EvalSim: sim.Wall,
			Speedup: float64(sim.Wall) / float64(evalSDT),
		}
	}
	res := &Table4Result{Cells: cells}
	for _, c := range cells {
		if c.Deviation > res.MaxDeviation {
			res.MaxDeviation = c.Deviation
		}
	}
	return res, nil
}

// Format prints the simulated half of Table IV: ACTs, their deviation
// and the modelled SDT evaluation time, the same bytes on every host.
func (r *Table4Result) Format(w io.Writer) {
	writeHeader(w, "Table IV: real application ACTs on SDT compared to simulator")
	fmt.Fprintf(w, "%-10s %-18s %6s %12s %12s %9s %12s\n",
		"app", "topology", "ranks", "ACT(SDT)", "ACT(sim)", "dev", "eval(SDT)")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-10s %-18s %6d %11.2fms %11.2fms %9s %12s\n",
			c.App, c.Topology, c.Ranks,
			float64(c.ACTSDT)/float64(netsim.Millisecond),
			float64(c.ACTSim)/float64(netsim.Millisecond),
			pct(c.Deviation),
			c.EvalSDT.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "max ACT deviation: %s (paper: <=3%%)\n", pct(r.MaxDeviation))
}

// formatMeasured prints the simulator's wall clock on this host and
// the evaluation-time speedup SDT has over it.
func (r *Table4Result) formatMeasured(w io.Writer, workers int) {
	writeMeasuredHeader(w, "Table IV: simulator evaluation time", workers)
	fmt.Fprintf(w, "%-10s %-18s %12s %9s\n", "app", "topology", "eval(sim)", "speedup")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-10s %-18s %12s %8.1fx\n",
			c.App, c.Topology, c.EvalSim.Round(time.Millisecond), c.Speedup)
	}
}
