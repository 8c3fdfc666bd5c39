package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/projection"
	"repro/internal/topology"
)

func init() {
	Register(30, "table2", "Table II: SDT vs other topology-projection methods",
		tableSet(func(ctx context.Context, p JobSpec) (*Table2Result, error) { return Table2(ctx, p.Zoo, p.Workers) }),
		Knob("zoo", "0"), workersField)
}

// Table2Row compares one TP method across the paper's workload set:
// the DC topologies (Fat-Tree k=4, Dragonfly(4,9,2), 4x4x4 Torus) and
// the 261 WAN maps of the Internet Topology Zoo.
type Table2Row struct {
	Method projection.Method
	// SwitchesNeeded per DC topology (-1 = not projectable on <=8).
	FatTree, Dragonfly, Torus int
	// HardwareUSD prices the hardware for the largest DC requirement.
	HardwareUSD float64
	// ZooCoverage counts zoo WANs projectable with 3 switches.
	ZooCoverage int
	// Reconfig is the modelled reconfiguration time for the Fat-Tree
	// deployment.
	Reconfig time.Duration
	// BandwidthFactor is usable fraction of port bandwidth.
	BandwidthFactor float64
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Rows    []Table2Row
	ZooSize int
}

// table2Methods is the TP-method row order of Table II.
func table2Methods() []projection.Method {
	return []projection.Method{
		projection.MethodSDT, projection.MethodSP, projection.MethodSPOS, projection.MethodTurboNet,
	}
}

// Table2 runs the scalability/cost/convenience comparison. zooSubset
// limits the zoo sweep for quick runs (0 = all 261). The Topology-Zoo
// projectability sweep (the dominant cost: 261 WAN maps x 4 methods)
// fans out one zoo graph per worker; coverage counts are identical at
// any worker count.
func Table2(ctx context.Context, zooSubset, workers int) (*Table2Result, error) {
	spec := projection.Commodity64("sw")
	zoo := topology.Zoo(42)
	if zooSubset > 0 && zooSubset < len(zoo) {
		zoo = zoo[:zooSubset]
	}
	ft := topology.FatTree(4)
	df := topology.Dragonfly(4, 9, 2, 1)
	torus := topology.Torus3D(4, 4, 4, 0)

	// Flow-table entries for the Fat-Tree deployment (SDT reconfig cost
	// driver): compute once from a real compile.
	entries, err := fatTreeEntries()
	if err != nil {
		return nil, err
	}

	// Zoo coverage sweep: each job owns one zoo graph (no shared state
	// between graphs) and checks it against every method.
	methods := table2Methods()
	coverage := make([]int, len(methods))
	covered := make([][]bool, len(zoo))
	err = core.ForEach(ctx, workers, len(zoo), func(i int) error {
		row := make([]bool, len(methods))
		for mi, m := range methods {
			row[mi] = projection.Projectable(zoo[i], spec, m, 3)
		}
		covered[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range covered {
		for mi, ok := range row {
			if ok {
				coverage[mi]++
			}
		}
	}

	res := &Table2Result{ZooSize: len(zoo)}
	for mi, m := range methods {
		row := Table2Row{Method: m, FatTree: -1, Dragonfly: -1, Torus: -1, BandwidthFactor: 1}
		var worst projection.Requirement
		for i, g := range []*topology.Graph{ft, df, torus} {
			req, err := projection.Requirements(g, spec, m, 8)
			if err != nil {
				continue
			}
			switch i {
			case 0:
				row.FatTree = req.Switches
			case 1:
				row.Dragonfly = req.Switches
			case 2:
				row.Torus = req.Switches
			}
			if req.Switches > worst.Switches {
				worst = req
			}
			row.BandwidthFactor = req.BandwidthFactor
		}
		row.HardwareUSD = costmodel.HardwareCost(worst)
		ftReq, err := projection.Requirements(ft, spec, m, 8)
		if err == nil {
			row.Reconfig = costmodel.ReconfigTime(ftReq, entries)
		}
		row.ZooCoverage = coverage[mi]
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fatTreeEntries deploys the k=4 fat-tree once on a testbed planned
// for it and returns the deployment's entry count (the §VII-C figure).
func fatTreeEntries() (int, error) {
	g := topology.FatTree(4)
	switches := []projection.PhysicalSwitch{
		projection.Commodity64("a"), projection.Commodity64("b"), projection.Commodity64("c"),
	}
	ctl, err := controller.NewFromTopologies(switches, []*topology.Graph{g})
	if err != nil {
		return 0, err
	}
	d, err := ctl.Deploy(g, controller.Options{})
	if err != nil {
		return 0, err
	}
	return d.Entries, nil
}

// Format prints Table II.
func (r *Table2Result) Format(w io.Writer) {
	writeHeader(w, "Table II: comparison between SDT and other TP methods")
	fmt.Fprintf(w, "%-14s %8s %10s %7s %12s %14s %12s %6s\n",
		"method", "FT(k=4)", "DF(4,9,2)", "Torus", "hardware $", "reconfig", "zoo cover", "bw")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %8s %10s %7s %12.0f %14s %8d/%d %6.2f\n",
			row.Method, swCount(row.FatTree), swCount(row.Dragonfly), swCount(row.Torus),
			row.HardwareUSD, row.Reconfig.Round(time.Millisecond),
			row.ZooCoverage, r.ZooSize, row.BandwidthFactor)
	}
}

func swCount(n int) string {
	if n < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d", n)
}
