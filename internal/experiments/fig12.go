package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

func init() {
	Register(20, "fig12", "Fig. 12: incast bandwidth, PFC on/off x SDT/full testbed",
		tableSet(func(ctx context.Context, p JobSpec) (Fig12Results, error) {
			return Fig12Panels(ctx, p.dur(), p.Workers)
		}),
		Knob("dur_ms", "1000"), workersField)
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

// Fig12Results is the figure's four panels in sdtbench's print order.
type Fig12Results []*Fig12Result

// Format prints every panel.
func (rs Fig12Results) Format(w io.Writer) {
	for _, r := range rs {
		r.Format(w)
	}
}

// Fig12Panels runs the four incast panels (PFC on/off x SDT/full
// testbed), one per worker, in the order sdtbench prints them
// (results are identical at any worker count).
func Fig12Panels(ctx context.Context, duration netsim.Time, workers int) (Fig12Results, error) {
	panels := fig12Panels()
	out := make(Fig12Results, len(panels))
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
// window; 1–2 s gives the same steady state). The incast is one
// core.Run of a Streams scenario bounded at duration; an observer
// samples each flow's goodput every interval, the means divide each
// flow's received bytes by duration, and the drop count covers the
// same window.
func Fig12(ctx context.Context, mode core.Mode, pfc bool, duration netsim.Time) (*Fig12Result, error) {
	g := fig10Topology()
	tb, err := core.PaperTestbed([]*topology.Graph{g})
	if err != nil {
		return nil, err
	}
	// TCP needs lossy queues when PFC is off; with PFC on the switch
	// pauses instead of dropping (lossless iperf as in Fig. 12a/b).
	cfg := tb.Cfg
	cfg.PFC = pfc
	const target = 3 // node 4
	res := &Fig12Result{Mode: mode, PFC: pfc}
	var streams []core.Stream
	hosts := g.Hosts()
	for i := range hosts {
		if i != target {
			streams = append(streams, core.Stream{Src: i, Dst: target})
			res.Flows = append(res.Flows, Fig12Flow{Node: i + 1})
		}
	}
	// Sample each flow's receiver-side bytes every 100 ms.
	interval := duration / 10
	if interval <= 0 {
		interval = 100 * netsim.Millisecond
	}
	last := make([]int64, len(streams))
	var routes *routing.Routes
	sampler := core.Hooks{
		Period: interval,
		Start: func(net *netsim.Network, _ core.Scenario) {
			routes = net.Fwd.(netsim.RouteForwarder).Routes
		},
		Tick: func(at netsim.Time, _ *netsim.Network) {
			for i, s := range streams {
				d := s.Conn.RcvBytes - last[i]
				last[i] = s.Conn.RcvBytes
				res.Flows[i].Samples = append(res.Flows[i].Samples, netsim.GoodputSample{
					At:   at,
					Gbps: float64(d*8) / interval.Seconds() / 1e9,
				})
			}
		},
	}
	run, err := core.Run(ctx, tb, core.Scenario{
		Topo: g, Streams: streams, Until: duration, Mode: mode,
		Hosts: hosts, Strategy: routing.ShortestPath{}, SimConfig: &cfg,
	}, core.WithObserver(sampler))
	if err != nil {
		return nil, err
	}
	res.Drops = run.Drops
	for i, s := range streams {
		res.Flows[i].MeanGbps = float64(s.Conn.RcvBytes*8) / duration.Seconds() / 1e9
		res.AggregateGbps += res.Flows[i].MeanGbps
	}
	// Label hops and congestion points from the route set the run used.
	paths := map[int][]int{}
	for _, s := range streams {
		if paths[s.Src+1], err = routes.TracePath(hosts[s.Src], hosts[target]); err != nil {
			return nil, err
		}
	}
	for i := range res.Flows {
		f := &res.Flows[i]
		f.Hops = len(paths[f.Node]) + 1 // switch hops + 2 host links - 1
		f.CongPts = congPoints(paths, f.Node)
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
