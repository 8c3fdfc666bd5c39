// Quickstart: build a fat-tree, project it onto three commodity
// switches with SDT Link Projection, run an IMB Pingpong on both the
// full testbed and the SDT projection, and compare — the core workflow
// of the paper in ~60 lines against the public facade, driven through
// the composable Run(ctx, testbed, scenario, ...Option) surface.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sdt "repro"
)

func main() {
	// 1. A logical topology: the paper's running example, fat-tree k=4
	//    (20 switches, 16 hosts, 48 cables — Fig. 1).
	topo := sdt.FatTree(4)
	fmt.Printf("logical topology: %v\n", topo)

	// 2. A testbed: the paper's 3x H3C S6861 cluster. Cabling is planned
	//    once for every topology we intend to evaluate (§IV-B) — here
	//    the fat-tree and the torus we will reconfigure to later.
	torus := sdt.Torus2D(5, 5, 1)
	tb, err := sdt.PaperTestbed([]*sdt.Topology{topo, torus})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run the same pingpong three ways through the composable Run
	//    API: one Scenario, the mode varied per run. The context
	//    cancels mid-simulation (here it just carries a generous
	//    wall-clock deadline).
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	hosts := topo.Hosts()
	scenario := sdt.Scenario{
		Topo:  topo,
		Trace: sdt.PingpongTrace(4096, 100),
		Hosts: []int{hosts[0], hosts[len(hosts)-1]},
	}

	for _, mode := range []sdt.Mode{sdt.ModeFullTestbed, sdt.ModeSDT, sdt.ModeSimulator} {
		scenario.Mode = mode
		res, err := sdt.Run(ctx, tb, scenario)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s ACT %8.2f us   evaluation time %12v  (events %d)\n",
			mode, float64(res.ACT)/float64(sdt.Microsecond), res.Eval, res.Events)
	}

	// 4. The SDT deployment details: how the topology landed on the
	//    physical switches.
	dep := tb.Ctl.Deployment(topo.Name)
	st := dep.Plan.Stats()
	fmt.Printf("\nSDT deployment of %s:\n", dep.Name)
	fmt.Printf("  physical switches used: %d\n", st.PhysicalSwitches)
	fmt.Printf("  self-links: %d, inter-switch links: %d, host ports: %d\n",
		st.SelfLinks, st.InterLinks, st.Hosts)
	fmt.Printf("  flow entries installed: %d (deploy time %v)\n", dep.Entries, dep.DeployTime)
	fmt.Println("\nreconfiguring to a 5x5 torus — no cables touched:")
	d2, err := tb.Ctl.Reconfigure(topo.Name, torus, sdt.ControllerOptions{RequireDeadlockFree: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s live in %v with %d flow entries\n", d2.Name, d2.DeployTime, d2.Entries)
}
