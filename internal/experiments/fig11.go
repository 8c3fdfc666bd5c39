package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/routing"
)

func init() {
	// sdtbench historically scales its -reps flag by 5 for the pingpong
	// count; the registered runner preserves that mapping.
	Register(10, "fig11", "Fig. 11: SDT latency overhead across IMB Pingpong message lengths",
		func(ctx context.Context, p Params, w, _ io.Writer) error {
			r, err := Fig11(ctx, p.Reps*5, p.Workers)
			if err != nil {
				return err
			}
			r.Format(w)
			return nil
		}, FieldReps, FieldWorkers)
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
// message length (the paper uses 10k; 50 is enough for a deterministic
// simulator), the message-length sweep fanned out one simulation per
// worker (results are identical at any worker count; 1 = serial).
// Cancelling the context stops in-flight pingpong runs mid-simulation.
func Fig11(ctx context.Context, reps, workers int) (*Fig11Result, error) {
	if reps <= 0 {
		reps = 50
	}
	g := fig10Topology()
	full, sdt, _, err := buildModeNet(g, routing.ShortestPath{})
	if err != nil {
		return nil, err
	}
	hosts := g.Hosts()
	a, b := hosts[0], hosts[7]
	lens := Fig11MsgLens()
	points := make([]Fig11Point, len(lens))
	err = core.ForEach(ctx, workers, len(lens), func(i int) error {
		bytes := lens[i]
		measure := func(mk func() (*netsim.Network, error)) (netsim.Time, error) {
			n, err := mk()
			if err != nil {
				return 0, err
			}
			release := core.WatchCancel(ctx, n.Sim)
			rtt := netsim.MeanRTT(netsim.MeasurePingpong(n, a, b, bytes, reps))
			release()
			return rtt, ctx.Err()
		}
		fullRTT, err := measure(full)
		if err != nil {
			return err
		}
		sdtRTT, err := measure(sdt)
		if err != nil {
			return err
		}
		points[i] = Fig11Point{
			Bytes: bytes, FullRTT: fullRTT, SDTRTT: sdtRTT,
			Overhead: float64(sdtRTT-fullRTT) / float64(fullRTT),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Points: points}
	for _, p := range points {
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
