package experiments

// The loadgen-sweep-xl scenario set: the flow-level fidelity mode
// (internal/flowsim) exercised at fabric sizes the packet engine
// cannot touch — fat-trees from 1k to 65k hosts, where a single
// packet-level cell would need billions of events but the fluid model
// finishes in ~flow-count work. The set also runs one packet-vs-flow
// pair on a small common fabric (the k=8 fat-tree, 128 hosts) with the
// same schedule and reports the wall-clock ratio on the measured sink:
// flow fidelity exists to be faster, and the ratio says by how much on
// this host.
//
// The XL testbed is built with no projected topologies on purpose: a
// 65k-host fat-tree does not fit any physical cluster, and the flow
// path needs only the testbed's fabric config — which is exactly the
// regime the fidelity knob exists for.

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func init() {
	Register(115, "loadgen-sweep-xl", "loadgen: flow-fidelity FCT sweep on XL fat-trees (1k-65k hosts), packet-vs-flow speedup on a 128-host reference",
		tableSet(LoadSweepXL), seedField, Knob("flows", "2048"), workersField)
}

// xlLoad is the fixed offered load of every XL cell: high enough that
// flows contend (rate recomputation does real work), low enough that
// the heavy-tailed schedule drains.
const xlLoad = 0.6

// LoadSweepXLCell is one (fat-tree size, pattern) grid point, run at
// flow fidelity.
type LoadSweepXLCell struct {
	Topo    string
	Hosts   int
	Pattern string
	Flows   int
	// Recomputes counts fair-share rate recomputations (the fluid
	// engine's event count) — deterministic per seed.
	Recomputes int64
	// Wall is this host's wall clock for the cell.
	Wall time.Duration
	FCT  *telemetry.FCTReport
}

// LoadSweepXLResult is the XL grid plus the packet-vs-flow reference
// pair.
type LoadSweepXLResult struct {
	Seed  int64
	Cells []LoadSweepXLCell
	// The common-fabric speedup pair: one schedule on SmallTopo run at
	// both fidelities. PacketWall/FlowWall/Speedup are wall-clock-
	// derived, from RunResult.Wall: the packet run's event loop, and
	// the whole flow-level run, route build and path walk included.
	SmallTopo  string
	SmallHosts int
	PacketWall time.Duration
	FlowWall   time.Duration
	Speedup    float64
}

// LoadSweepXL sweeps uniform and permutation schedules over fat-trees
// k ∈ {16, 36, 64} (1024, 11664 and 65536 hosts) at flow fidelity,
// then times one packet-vs-flow pair on the k=8 fat-tree. Knobs: seed,
// flows per cell, and workers, which fans the XL cells out one run per
// worker. The speedup pair always runs serially so its
// wall-clock ratio is clean.
func LoadSweepXL(ctx context.Context, p JobSpec) (*LoadSweepXLResult, error) {
	seed, flows := p.Seed, p.Flows
	sizes := loadgen.ScaleSizes(loadgen.WebSearch(), 1.0/64)
	patterns := []loadgen.Pattern{loadgen.Uniform(), loadgen.Permutation()}
	const ranks = 64

	// One testbed serves both halves: it is planned for the small
	// reference fabric only, because the XL fabrics exist solely as
	// simulated graphs — a 65k-host fat-tree fits no physical cluster,
	// and the flow path reads nothing but the testbed's fabric config.
	small := topology.FatTree(8)
	tb, err := testbedSizedFor(small)
	if err != nil {
		return nil, err
	}
	res := &LoadSweepXLResult{Seed: seed}
	var jobs []core.Job
	for _, k := range []int{16, 36, 64} {
		g := topology.FatTree(k)
		nHosts := len(g.Hosts())
		for _, pat := range patterns {
			fs, err := loadgen.Spec{
				Ranks: ranks, Pattern: pat, Sizes: sizes,
				Load: xlLoad, Flows: flows, Seed: seed + int64(len(res.Cells)),
			}.Generate()
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, LoadSweepXLCell{
				Topo: g.Name, Hosts: nHosts, Pattern: pat.Name(), Flows: flows,
			})
			jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
				Topo: g, Flows: fs.Flows, Mode: core.FullTestbed, Fidelity: core.Flow,
			}})
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	for i := range res.Cells {
		res.Cells[i].Recomputes = results[i].Events
		res.Cells[i].Wall = results[i].Wall
		res.Cells[i].FCT = measureFCT(jobs[i].Flows, sweepBuckets())
	}

	// The speedup reference: the largest fabric both fidelities reach
	// comfortably, one seeded schedule run twice. The pair uses the
	// UNSCALED web-search distribution (mean ~0.5 MB): packet-level cost
	// grows with bytes × hops while fluid cost grows with flow count, so
	// realistic datacenter flow sizes are exactly where the fidelity
	// trade pays — and what the speedup figure should price.
	gen := func() ([]netsim.Flow, error) {
		fs, err := loadgen.Spec{
			Ranks: 16, Pattern: loadgen.Uniform(), Sizes: loadgen.WebSearch(),
			Load: xlLoad, Flows: flows, Seed: seed,
		}.Generate()
		if err != nil {
			return nil, err
		}
		return fs.Flows, nil
	}
	pktFlows, err := gen()
	if err != nil {
		return nil, err
	}
	pkt, err := core.Run(ctx, tb, core.Scenario{Topo: small, Flows: pktFlows, Mode: core.FullTestbed})
	if err != nil {
		return nil, err
	}
	fluFlows, err := gen()
	if err != nil {
		return nil, err
	}
	flu, err := core.Run(ctx, tb, core.Scenario{
		Topo: small, Flows: fluFlows, Mode: core.FullTestbed, Fidelity: core.Flow,
	})
	if err != nil {
		return nil, err
	}
	res.SmallTopo = small.Name
	res.SmallHosts = len(small.Hosts())
	res.PacketWall = pkt.Wall
	res.FlowWall = flu.Wall
	if flu.Wall > 0 {
		res.Speedup = float64(pkt.Wall) / float64(flu.Wall)
	}
	return res, nil
}

// Format prints the simulated half of the XL grid: hosts, flows,
// recomputes and FCT slowdowns, the same bytes on every host.
func (r *LoadSweepXLResult) Format(w io.Writer) {
	writeHeader(w, fmt.Sprintf(
		"loadgen: XL flow-fidelity sweep (scaled web-search sizes, 64 ranks, load %.1f, seed %d)",
		xlLoad, r.Seed))
	fmt.Fprintf(w, "%-14s %6s %-12s %6s %10s  %15s %15s %15s\n",
		"topology", "hosts", "pattern", "flows", "recomputes",
		"<10K p50/p99", "10-100K p50/p99", ">=100K p50/p99")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "%-14s %6d %-12s %6d %10d ", c.Topo, c.Hosts, c.Pattern, c.Flows, c.Recomputes)
		for _, b := range c.FCT.Buckets {
			if b.Count == 0 {
				fmt.Fprintf(w, " %15s", "-")
				continue
			}
			fmt.Fprintf(w, " %7.2f/%-7.2f", b.P50, b.P99)
		}
		fmt.Fprintln(w)
	}
}

// formatMeasured prints each XL cell's wall clock on this host and the
// packet-vs-flow speedup line.
func (r *LoadSweepXLResult) formatMeasured(w io.Writer, workers int) {
	writeMeasuredHeader(w, "loadgen: XL flow-fidelity wall clock", workers)
	fmt.Fprintf(w, "%-14s %6s %-12s %9s\n", "topology", "hosts", "pattern", "wall(ms)")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "%-14s %6d %-12s %9.1f\n",
			c.Topo, c.Hosts, c.Pattern, float64(c.Wall.Microseconds())/1000)
	}
	fmt.Fprintf(w, "%s (%d hosts, same schedule both fidelities): packet %.1fms flow %.1fms speedup %.1fx\n",
		r.SmallTopo, r.SmallHosts,
		float64(r.PacketWall.Microseconds())/1000,
		float64(r.FlowWall.Microseconds())/1000,
		r.Speedup)
}
