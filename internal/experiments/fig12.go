package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

func init() {
	Register(20, "fig12", "Fig. 12: incast bandwidth, PFC on/off x SDT/full testbed",
		func(ctx context.Context, p Params, w, _ io.Writer) error {
			rs, err := Fig12Panels(ctx, p.Duration, p.Workers)
			if err != nil {
				return err
			}
			for _, r := range rs {
				r.Format(w)
			}
			return nil
		}, FieldDur, FieldWorkers)
}

// Fig12Flow is one sender's bandwidth series in the incast test.
type Fig12Flow struct {
	Node     int // 1-based node number as in the paper (target is node 4)
	Hops     int // host-to-host hops (paper's h)
	CongPts  int // congestion points on the path to the target (paper's cp)
	MeanGbps float64
	Samples  []netsim.GoodputSample
}

// Fig12Result is one panel of Fig. 12 (a mode x PFC setting).
type Fig12Result struct {
	Mode  core.Mode
	PFC   bool
	Flows []Fig12Flow
	// AggregateGbps is the receiver's total goodput.
	AggregateGbps float64
	Drops         int64
}

// fig12Panels is the panel order of cmd/sdtbench's fig12 output.
func fig12Panels() []struct {
	Mode core.Mode
	PFC  bool
} {
	return []struct {
		Mode core.Mode
		PFC  bool
	}{
		{core.SDT, true}, {core.FullTestbed, true},
		{core.SDT, false}, {core.FullTestbed, false},
	}
}

// Fig12Panels runs the four incast panels (PFC on/off x SDT/full
// testbed), one per worker, in the order sdtbench prints them
// (results are identical at any worker count).
func Fig12Panels(ctx context.Context, duration netsim.Time, workers int) ([]*Fig12Result, error) {
	panels := fig12Panels()
	out := make([]*Fig12Result, len(panels))
	err := core.ForEach(ctx, workers, len(panels), func(i int) error {
		r, err := Fig12(ctx, panels[i].Mode, panels[i].PFC, duration)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig12 runs the iperf3 incast of §VI-B2: every node sends TCP traffic
// to node 4 on the Fig. 10 chain, with PFC on or off, on the full
// testbed or SDT. duration is simulated time (the paper plots an ~8 s
// window; 1–2 s gives the same steady state). Fig12 drives the fabric
// directly — long-lived TCP bounded by a simulated-time window has no
// Scenario form — so it arms engine-loop cancellation itself via
// core.WatchCancel.
func Fig12(ctx context.Context, mode core.Mode, pfc bool, duration netsim.Time) (*Fig12Result, error) {
	if duration <= 0 {
		duration = 1 * netsim.Second
	}
	g := fig10Topology()
	tb, err := core.PaperTestbed([]*topology.Graph{g})
	if err != nil {
		return nil, err
	}
	net, _, err := tb.Network(g, routing.ShortestPath{}, mode)
	if err != nil {
		return nil, err
	}
	net.Cfg.PFC = pfc
	// TCP needs lossy queues when PFC is off; with PFC on the switch
	// pauses instead of dropping (lossless iperf as in Fig. 12a/b).
	hosts := g.Hosts()
	target := hosts[3] // node 4
	conns := map[int]*netsim.TCPConn{}
	for i, h := range hosts {
		if h == target {
			continue
		}
		conns[i+1] = net.StartTCP(h, target, -1, nil)
	}
	// Sample each flow's receiver-side bytes every 100 ms.
	interval := duration / 10
	if interval <= 0 {
		interval = 100 * netsim.Millisecond
	}
	samples := map[int][]netsim.GoodputSample{}
	last := map[int]int64{}
	var tick func(at netsim.Time)
	tick = func(at netsim.Time) {
		net.Sim.At(at, func() {
			for node, c := range conns {
				d := c.RcvBytes - last[node]
				last[node] = c.RcvBytes
				samples[node] = append(samples[node], netsim.GoodputSample{
					At:   at,
					Gbps: float64(d*8) / interval.Seconds() / 1e9,
				})
			}
			if at+interval <= duration {
				tick(at + interval)
			}
		})
	}
	tick(interval)
	// Snapshot per-flow byte counts exactly at the measurement window's
	// end so means divide the right interval.
	final := map[int]int64{}
	net.Sim.At(duration, func() {
		for node, c := range conns {
			final[node] = c.RcvBytes
		}
	})
	release := core.WatchCancel(ctx, net.Sim)
	net.Sim.Run(duration + interval)
	release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Fig12Result{Mode: mode, PFC: pfc, Drops: net.TotalDrops}
	routes, _ := routing.ShortestPath{}.Compute(g)
	// Paths for hop/cp labelling.
	paths := map[int][]int{}
	for i, h := range hosts {
		if h == target {
			continue
		}
		p, err := routes.TracePath(h, target)
		if err != nil {
			return nil, err
		}
		paths[i+1] = p
	}
	var nodes []int
	for node := range conns {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		mean := float64(final[node]*8) / duration.Seconds() / 1e9
		res.Flows = append(res.Flows, Fig12Flow{
			Node:     node,
			Hops:     len(paths[node]) + 1, // switch hops + 2 host links - 1
			CongPts:  congPoints(paths, node),
			MeanGbps: mean,
			Samples:  samples[node],
		})
		res.AggregateGbps += mean
	}
	return res, nil
}

// congPoints counts switches on node's path where at least one other
// flow's path merges in — the paper's "cp" legend annotation.
func congPoints(paths map[int][]int, node int) int {
	mine := paths[node]
	onMine := map[int]int{}
	for i, sw := range mine {
		onMine[sw] = i
	}
	// A congestion point is a switch on my path where some other flow
	// enters (its path's first switch shared with mine).
	cps := map[int]bool{}
	for other, p := range paths {
		if other == node {
			continue
		}
		for _, sw := range p {
			if _, shared := onMine[sw]; shared {
				cps[sw] = true
				break
			}
		}
	}
	return len(cps)
}

// Format prints the per-node bandwidths like the Fig. 12 legends.
func (r *Fig12Result) Format(w io.Writer) {
	onoff := "off"
	if r.PFC {
		onoff = "on"
	}
	writeHeader(w, fmt.Sprintf("Fig. 12: incast bandwidth — %s (PFC %s)", r.Mode, onoff))
	for _, f := range r.Flows {
		fmt.Fprintf(w, "n%d(h:%d, cp:%d): %.2f Gbps\n", f.Node, f.Hops, f.CongPts, f.MeanGbps)
	}
	fmt.Fprintf(w, "aggregate: %.2f Gbps, drops: %d\n", r.AggregateGbps, r.Drops)
}
