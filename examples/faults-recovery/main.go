// Faults recovery: run seeded open-loop traffic on a fat-tree while a
// core link fails mid-run, let the controller reroute repair the live
// FIB around the outage, and print the recovery metrics — packets lost
// to the dead link, the fault→first-repaired-delivery reconvergence
// time, and the route churn of the patch and the restore. Rerunning
// with the same seed reproduces every number.
package main

import (
	"context"
	"fmt"
	"log"

	sdt "repro"
)

func main() {
	topo := sdt.FatTree(4)
	tb, err := sdt.PaperTestbed([]*sdt.Topology{topo})
	if err != nil {
		log.Fatal(err)
	}

	// A seeded open-loop workload: 16 endpoints, uniform pairs, 64 kB
	// flows at 40% load.
	linkBps := sdt.DefaultSimConfig().LinkBps
	fs, err := sdt.LoadSpec{
		Ranks: 16, Load: 0.4, Flows: 400, Seed: 7,
		Pattern: sdt.PatternUniform(), Sizes: sdt.FixedSize(64 << 10),
		LinkBps: linkBps,
	}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	window := fs.Flows[len(fs.Flows)-1].Start

	// Fail one seeded core link (switch-switch, so every host stays
	// attached) for the middle half of the injection window. The
	// controller notices after RepairLatency and patches the live FIB
	// around the outage; when the link heals, the original strategy
	// routes come back.
	link := sdt.PickCoreEdges(topo, 1, 7)[0]
	spec := &sdt.FaultSpec{
		Events: []sdt.FaultEvent{
			{At: window / 4, Kind: sdt.FaultLinkDown, Elem: link},
			{At: 3 * window / 4, Kind: sdt.FaultLinkUp, Elem: link},
		},
		RepairLatency: window / 16,
	}

	res, err := sdt.Run(context.Background(), tb, sdt.Scenario{
		Topo:   topo,
		Flows:  fs.Flows,
		Mode:   sdt.ModeFullTestbed,
		Faults: spec,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("link e%d down %.0f–%.0f us of a %.0f us window\n",
		link,
		float64(window/4)/float64(sdt.Microsecond),
		float64(3*window/4)/float64(sdt.Microsecond),
		float64(window)/float64(sdt.Microsecond))
	fmt.Printf("flows: %d total, %d completed; ACT %.3f ms; lost to the outage: %d packets\n\n",
		len(fs.Flows), len(fs.Flows)-res.Incomplete,
		float64(res.ACT)/float64(sdt.Millisecond), res.FaultDrops)

	// One record per scheduled fault: when the repaired routes went
	// live, the fault→first-repaired-delivery time, the repair's churn.
	us := func(t sdt.SimTime) string { return fmt.Sprintf("%.0fus", float64(t)/float64(sdt.Microsecond)) }
	fmt.Printf("%-24s %10s %10s %10s %6s\n", "fault", "at", "repair", "reconv", "churn")
	for i := range res.Faults {
		f := &res.Faults[i]
		repair, reconv := "-", "-"
		if f.RepairAt >= 0 {
			repair = us(f.RepairAt)
		}
		if d := f.Reconvergence(); d >= 0 {
			reconv = us(d)
		}
		fmt.Printf("%-24s %9.0fus %10s %10s %6d\n",
			f, float64(f.At)/float64(sdt.Microsecond), repair, reconv, f.RulesChanged)
	}
	fmt.Printf("packets lost to faults: %d, flows incomplete: %d\n", res.FaultDrops, res.Incomplete)

	// The same schedule on a healthy fabric, for the FCT penalty.
	healthy := sdt.LoadSpec{
		Ranks: 16, Load: 0.4, Flows: 400, Seed: 7,
		Pattern: sdt.PatternUniform(), Sizes: sdt.FixedSize(64 << 10),
		LinkBps: linkBps,
	}.MustGenerate()
	base, err := sdt.Run(context.Background(), tb, sdt.Scenario{
		Topo: topo, Flows: healthy.Flows, Mode: sdt.ModeFullTestbed,
	})
	if err != nil {
		log.Fatal(err)
	}
	faulted := sdt.MeasureFCT(fs.Flows, linkBps, 0, nil)
	clean := sdt.MeasureFCT(healthy.Flows, linkBps, 0, nil)
	fmt.Printf("\nhealthy rerun: ACT %.3f ms, all %d flows complete\n",
		float64(base.ACT)/float64(sdt.Millisecond), len(healthy.Flows))
	if len(faulted.Buckets) > 0 && len(clean.Buckets) > 0 {
		fb, cb := pick(faulted), pick(clean)
		fmt.Printf("p99 slowdown: %.2fx under the fault vs %.2fx healthy\n", fb, cb)
	}
}

// pick returns the p99 slowdown of the (single populated) 64 kB bucket.
func pick(rep *sdt.FCTReport) float64 {
	for _, b := range rep.Buckets {
		if b.Count > 0 {
			return b.P99
		}
	}
	return 0
}
