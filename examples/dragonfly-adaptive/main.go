// Dragonfly adaptive-routing example (§VI-E): run a skewed Alltoall on
// a Dragonfly(4,9,2) with minimal routing, let the Network Monitor
// measure link loads, switch to UGAL active routing, and show the ACT
// improvement — the controller's Routing Strategy + Network Monitor
// modules working together, driven through the composable Run API with
// telemetry attached as a run observer (no manual Arm/Collect wiring).
package main

import (
	"context"
	"fmt"
	"log"

	sdt "repro"
	"repro/internal/routing"
)

func main() {
	ctx := context.Background()
	g := sdt.Dragonfly(4, 9, 2, 1)
	fmt.Printf("topology: %v\n", g)

	tb, err := sdt.PaperTestbed([]*sdt.Topology{g})
	if err != nil {
		log.Fatal(err)
	}

	// Adversarial placement: all ranks in the first two groups, so
	// minimal routing funnels everything over one global link.
	const nodes = 8
	scenario := sdt.Scenario{
		Topo:  g,
		Trace: sdt.AlltoallTrace(nodes, 256*1024, 4),
		Mode:  sdt.ModeFullTestbed,
		Hosts: g.Hosts()[:nodes],
	}

	// The run observer captures the finished fabric for the Network
	// Monitor; a telemetry collector samples link loads every 200 us of
	// simulated time *during* the run.
	var lastNet *sdt.Network
	capture := sdt.RunHooks{Finish: func(_ *sdt.RunResult, net *sdt.Network) { lastNet = net }}

	run := func(name string, routes *sdt.Routes, col *sdt.TelemetryCollector) sdt.SimTime {
		scenario.Strategy = sdt.FixedRoutes{Routes: routes}
		opts := []sdt.Option{sdt.WithObserver(capture)}
		if col != nil {
			opts = append(opts, sdt.WithTelemetry(col))
		}
		res, err := sdt.Run(ctx, tb, scenario, opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s ACT %8.3f ms  (drops %d, pauses %d)\n",
			name, float64(res.ACT)/float64(sdt.Millisecond), res.Drops, res.Pauses)
		return res.ACT
	}

	minimal, err := routing.DragonflyMinimal{}.Compute(g)
	if err != nil {
		log.Fatal(err)
	}
	col := sdt.NewTelemetryCollector(g, 200*sdt.Microsecond, 0)
	actMin := run("minimal routing", minimal, col)

	fmt.Printf("\ntelemetry (sampled %d epochs during the run): hottest logical links:\n", col.Epochs())
	for _, s := range col.Hottest(5) {
		fmt.Printf("  %s <-> %s: peak %d B/epoch, EWMA %.0f B/epoch\n", s.A, s.B, s.Peak, s.EWMA)
	}

	// Derive UGAL active routes from the finished fabric's measured
	// link loads, the Network Monitor's feed.
	active, err := routing.DragonflyUGAL{Loads: lastNet.LinkLoads(), Bias: 1}.Compute(g)
	if err != nil {
		log.Fatal(err)
	}
	if err := sdt.VerifyDeadlockFree(active); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nactive routing verified deadlock-free (CDG acyclic); rerunning:")
	actUGAL := run("active (UGAL) routing", active, nil)

	fmt.Printf("\nACT reduction from active routing: %.1f%% (paper: active routing reduces the ACT of IMB Alltoall)\n",
		100*float64(actMin-actUGAL)/float64(actMin))
}
