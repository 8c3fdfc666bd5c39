// Command sdtctl is the SDT controller CLI: it checks topology
// configuration files against a testbed, deploys them (printing the
// synthesised flow tables), and demonstrates reconfiguration — all of
// §V driven from the command line.
//
// Usage:
//
//	sdtctl -check  fattree-k4.json
//	sdtctl -deploy fattree-k4.json -dump
//	sdtctl -reconfigure fattree-k4.json,torus.json
//	sdtctl -switches 3 -ports 88
//	sdtctl -check fattree-k4.json,torus.json -json
//
// Every topology of a -check run is checked (a failing one does not
// mask the rest); any check, deploy, or reconfigure failure exits
// non-zero. -json replaces the human-readable lines with one
// machine-readable JSON document.
//
// With -daemon ADDR, sdtctl is instead a client of a running sdtd
// simulation service — submit/status/result/cancel/scenarios/stats
// (see daemon.go for the action flags):
//
//	sdtctl -daemon :7390 -submit loadgen-sweep -spec '{"seed":7}' -wait
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/controller"
	"repro/internal/projection"
	"repro/internal/topology"
)

// ctlResult is one topology's outcome in the report.
type ctlResult struct {
	Action   string `json:"action"`
	Topology string `json:"topology"`
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	// Deployment stats (deploy/reconfigure only).
	PhysicalSwitches int     `json:"physical_switches,omitempty"`
	SelfLinks        int     `json:"self_links,omitempty"`
	InterLinks       int     `json:"inter_links,omitempty"`
	Hosts            int     `json:"hosts,omitempty"`
	Entries          int     `json:"entries,omitempty"`
	DeployMs         float64 `json:"deploy_ms,omitempty"`
}

// ctlReport is the top-level -json document.
type ctlReport struct {
	Switches int         `json:"switches"`
	Ports    int         `json:"ports"`
	Results  []ctlResult `json:"results"`
	OK       bool        `json:"ok"`
}

func main() {
	os.Exit(run())
}

func run() int {
	check := flag.String("check", "", "topology config to check against the testbed")
	deploy := flag.String("deploy", "", "comma-separated topology configs to deploy together")
	reconf := flag.String("reconfigure", "", "comma-separated topology configs to deploy in sequence, reconfiguring between them")
	nSwitches := flag.Int("switches", 3, "physical switch count")
	ports := flag.Int("ports", 88, "ports per physical switch")
	tableCap := flag.Int("tablecap", 16384, "flow-table capacity per switch")
	dump := flag.Bool("dump", false, "dump flow tables after deployment")
	lossless := flag.Bool("lossless", true, "require deadlock-free routes (PFC operation)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document instead of lines")
	flag.Parse()

	if *daemonAddr != "" {
		return daemonMain(*jsonOut)
	}

	report := ctlReport{Switches: *nSwitches, Ports: *ports, OK: true}
	say := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}
	record := func(r ctlResult) {
		if !r.OK {
			report.OK = false
			fmt.Fprintf(os.Stderr, "sdtctl: %s %s: %s\n", r.Action, r.Topology, r.Error)
		}
		report.Results = append(report.Results, r)
	}
	fail := func(action, topo string, err error) {
		record(ctlResult{Action: action, Topology: topo, OK: false, Error: err.Error()})
	}

	load := func(paths string) ([]*topology.Graph, bool) {
		var out []*topology.Graph
		ok := true
		for _, p := range strings.Split(paths, ",") {
			p = strings.TrimSpace(p)
			g, err := topology.LoadConfig(p)
			if err != nil {
				fail("load", p, err)
				ok = false
				continue
			}
			out = append(out, g)
		}
		return out, ok
	}

	var specs []projection.PhysicalSwitch
	for i := 0; i < *nSwitches; i++ {
		specs = append(specs, projection.PhysicalSwitch{
			ID: fmt.Sprintf("sw%d", i), Ports: *ports, TableCap: *tableCap,
		})
	}

	depResult := func(action string, d *controller.Deployment) ctlResult {
		st := d.Plan.Stats()
		return ctlResult{
			Action: action, Topology: d.Name, OK: true,
			PhysicalSwitches: st.PhysicalSwitches, SelfLinks: st.SelfLinks,
			InterLinks: st.InterLinks, Hosts: st.Hosts, Entries: d.Entries,
			DeployMs: float64(d.DeployTime) / float64(time.Millisecond),
		}
	}

	switch {
	case *check != "":
		topos, _ := load(*check)
		// Check every topology individually so one failure does not mask
		// the rest (a joint cabling plan fails as a block)...
		for _, g := range topos {
			ctl, err := controller.NewFromTopologies(specs, []*topology.Graph{g})
			if err == nil {
				err = ctl.Check(g)
			}
			if err != nil {
				fail("check", g.Name, err)
				continue
			}
			record(ctlResult{Action: "check", Topology: g.Name, OK: true})
			say("%s: OK — fits the testbed (%d switches x %d ports)\n", g.Name, *nSwitches, *ports)
		}
		// ...then verify the whole set can be cabled together — the real
		// preflight for a joint -deploy, which plans all configs at once.
		if len(topos) > 1 {
			var names []string
			for _, g := range topos {
				names = append(names, g.Name)
			}
			set := strings.Join(names, "+")
			if _, err := controller.NewFromTopologies(specs, topos); err != nil {
				fail("check-set", set, err)
			} else {
				record(ctlResult{Action: "check-set", Topology: set, OK: true})
				say("set: OK — all %d topologies fit the testbed together\n", len(topos))
			}
		}

	case *deploy != "":
		topos, ok := load(*deploy)
		if !ok {
			break
		}
		ctl, err := controller.NewFromTopologies(specs, topos)
		if err != nil {
			fail("plan", *deploy, err)
			break
		}
		for _, g := range topos {
			d, err := ctl.Deploy(g, controller.Options{RequireDeadlockFree: *lossless})
			if err != nil {
				fail("deploy", g.Name, err)
				continue
			}
			record(depResult("deploy", d))
			st := d.Plan.Stats()
			say("deployed %s: %d physical switches, %d self-links, %d inter-switch links, %d hosts, %d flow entries, reconfig time %v\n",
				d.Name, st.PhysicalSwitches, st.SelfLinks, st.InterLinks, st.Hosts, d.Entries, d.DeployTime)
		}
		if *dump && !*jsonOut {
			for _, sw := range ctl.Physical {
				if sw.Table.Len() > 0 {
					fmt.Print(sw.Dump())
				}
			}
		}

	case *reconf != "":
		topos, ok := load(*reconf)
		if !ok {
			break
		}
		if len(topos) < 2 {
			fail("reconfigure", *reconf, fmt.Errorf("-reconfigure needs at least two configs"))
			break
		}
		ctl, err := controller.NewFromTopologies(specs, topos)
		if err != nil {
			fail("plan", *reconf, err)
			break
		}
		prev, err := ctl.Deploy(topos[0], controller.Options{RequireDeadlockFree: *lossless})
		if err != nil {
			fail("deploy", topos[0].Name, err)
			break
		}
		record(depResult("deploy", prev))
		say("deployed %s (%d entries, %v)\n", prev.Name, prev.Entries, prev.DeployTime)
		for _, g := range topos[1:] {
			d, err := ctl.Reconfigure(prev.Name, g, controller.Options{RequireDeadlockFree: *lossless})
			if err != nil {
				fail("reconfigure", g.Name, err)
				break
			}
			record(depResult("reconfigure", d))
			say("reconfigured -> %s (%d entries, %v) — no cables touched\n", d.Name, d.Entries, d.DeployTime)
			prev = d
		}

	default:
		flag.Usage()
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "sdtctl: json: %v\n", err)
			return 1
		}
	}
	if !report.OK {
		return 1
	}
	return 0
}
