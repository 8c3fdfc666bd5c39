package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	// The reps knob counts pingpongs in fives, so one reps default (8)
	// serves fig11 and fig13's alltoall rounds alike.
	Register(10, "fig11", "Fig. 11: SDT latency overhead across IMB Pingpong message lengths",
		tableSet(func(ctx context.Context, p JobSpec) (*Fig11Result, error) { return Fig11(ctx, p.Reps*5, p.Workers) }),
		Knob("reps", "8"), workersField)
}

// Fig11Point is one message length of the latency-overhead sweep.
type Fig11Point struct {
	Bytes    int
	FullRTT  netsim.Time
	SDTRTT   netsim.Time
	Overhead float64 // (sdt-full)/full
}

// Fig11Result reproduces Fig. 11: additional overhead by SDT on the
// 8-switch-chain latency across IMB Pingpong message lengths.
type Fig11Result struct {
	Points []Fig11Point
	// MaxOverhead is the headline number (paper: <= 1.6%, always < 2%).
	MaxOverhead float64
}

// Fig11MsgLens is the paper's -msglen sweep: 0B to 1MB.
func Fig11MsgLens() []int {
	lens := []int{0}
	for b := 1; b <= 1<<20; b <<= 1 {
		lens = append(lens, b)
	}
	return lens
}

// Fig11 runs the latency comparison with `reps` round trips per
// message length (the paper uses 10k; the registered set runs 40 by
// default, plenty for a deterministic simulator). Every message length contributes an IMB Pingpong trace
// on the full testbed and on SDT to one core.Sweep, one simulation per
// worker (results are identical at any worker count; 1 = serial); the
// mean RTT is a run's ACT over reps. Cancelling the context stops
// in-flight runs mid-simulation.
func Fig11(ctx context.Context, reps, workers int) (*Fig11Result, error) {
	g := fig10Topology()
	tb, err := core.PaperTestbed([]*topology.Graph{g})
	if err != nil {
		return nil, err
	}
	all := g.Hosts()
	hosts := []int{all[0], all[7]}
	lens := Fig11MsgLens()
	var jobs []core.Job
	for _, bytes := range lens {
		tr := workload.Pingpong(bytes, reps)
		for _, mode := range []core.Mode{core.FullTestbed, core.SDT} {
			jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{
				Topo: g, Trace: tr, Hosts: hosts, Mode: mode, Strategy: routing.ShortestPath{},
			}})
		}
	}
	results, err := core.Sweep(ctx, jobs, core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Points: make([]Fig11Point, len(lens))}
	for i, bytes := range lens {
		fullRTT := results[2*i].ACT / netsim.Time(reps)
		sdtRTT := results[2*i+1].ACT / netsim.Time(reps)
		p := Fig11Point{
			Bytes: bytes, FullRTT: fullRTT, SDTRTT: sdtRTT,
			Overhead: float64(sdtRTT-fullRTT) / float64(fullRTT),
		}
		res.Points[i] = p
		if p.Overhead > res.MaxOverhead {
			res.MaxOverhead = p.Overhead
		}
	}
	return res, nil
}

// Format prints the figure's series as rows.
func (r *Fig11Result) Format(w io.Writer) {
	writeHeader(w, "Fig. 11: additional overhead by SDT on 8-hop latency")
	fmt.Fprintf(w, "%-10s %14s %14s %12s\n", "msglen", "full RTT", "SDT RTT", "overhead")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %12.3fus %12.3fus %12s\n",
			fmtBytes(p.Bytes),
			float64(p.FullRTT)/float64(netsim.Microsecond),
			float64(p.SDTRTT)/float64(netsim.Microsecond),
			pct(p.Overhead))
	}
	fmt.Fprintf(w, "max overhead: %s (paper: <=1.6%%, always <2%%)\n", pct(r.MaxOverhead))
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
