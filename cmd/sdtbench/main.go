// Command sdtbench regenerates the paper's tables and figures
// (EXPERIMENTS.md records the outputs). The experiments come from the
// scenario registry (internal/experiments Register/Lookup), so the CLI
// is a thin shell: flags become experiments.Params, names resolve
// through the registry, and Ctrl-C cancels in-flight simulations
// mid-run via context cancellation threaded into the engine loop.
//
// Usage:
//
//	sdtbench -list
//	sdtbench -list -json
//	sdtbench -exp all
//	sdtbench -exp fig11 -parallel 0
//	sdtbench -exp table4 -ranks 16
//	sdtbench -exp fig13 -bytes 524288 -reps 8
//	sdtbench -exp loadgen-sweep -seed 7 -parallel 0
//	sdtbench -exp reconfig-sweep
//	sdtbench -exp reconfig-under-load -reconfig torus
//	sdtbench -exp cc-shootout -cc timely
//
// -list prints every registered scenario set with its one-line
// description (the registry is the source of truth — see WORKLOADS.md
// for the workload catalogue behind them). With -json it emits the
// machine-readable registry instead — names, descriptions, and each
// set's param schema — the same document sdtd serves at /v1/scenarios.
//
// Each set prints its simulated tables — the same bytes on every host
// and at any worker count. fig13, table4 and loadgen-sweep-xl follow
// theirs with a second table, titled "measured on this host,
// workers=N", holding the wall-clock figures (the simulator's own
// evaluation time and the speedups derived from it). To measure the
// program's performance use the benchmark in bench/ (bench/README.md).
//
// -parallel N runs sweep experiments one independent simulation per
// worker (0 = all cores). Read the measured tables from serial runs:
// contended workers inflate them.
//
// -reconfig selects reconfig-under-load's transition target topology:
// dragonfly (the default) or torus. reconfig-sweep ignores it — its
// grid fixes the transition pairs.
//
// -cc restricts cc-shootout to one congestion-control policy (dcqcn,
// timely, or pfabric); empty races all three.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/netsim"
)

func main() {
	names := experiments.Names()
	exp := flag.String("exp", "all", "experiment (comma-separated): "+strings.Join(names, "|")+"|all")
	ranks := flag.Int("ranks", 16, "MPI ranks for table4")
	reps := flag.Int("reps", 8, "repetitions (fig11 pingpongs / fig13 alltoall rounds)")
	bytes := flag.Int("bytes", 256*1024, "message bytes for fig13 / active routing")
	zoo := flag.Int("zoo", 0, "zoo subset size for table2 (0 = all 261)")
	durMs := flag.Int("dur", 1000, "fig12 window in simulated ms")
	parallel := flag.Int("parallel", 1, "workers for sweep experiments (0 = all cores, 1 = serial)")
	seed := flag.Int64("seed", 1, "loadgen schedule seed (equal seeds rerun byte-identical)")
	flows := flag.Int("flows", 0, "loadgen flows per grid cell (0 = experiment default)")
	load := flag.Float64("load", 0, "loadgen-incast victim load factor (0 = 0.8)")
	nFaults := flag.Int("faults", 0, "faults-sweep link-failure count per cell (0 = the {1,2,4} grid)")
	mtbf := flag.Float64("mtbf", 0, "faults-flap link MTBF in ms, MTTR = MTBF/4 (0 = the {1,2,4,8} ms grid)")
	reconfigTarget := flag.String("reconfig", "", "reconfig-under-load transition target: dragonfly|torus (\"\" = dragonfly)")
	cc := flag.String("cc", "", "cc-shootout congestion-control policy: "+strings.Join(netsim.CCPolicies(), "|")+" (\"\" = all)")
	jsonOut := flag.Bool("json", false, "with -list: emit the registry (names, descriptions, param schemas) as JSON")
	list := flag.Bool("list", false, "list registered experiments with their descriptions and exit")
	flag.Parse()

	if *jsonOut && !*list {
		fmt.Fprintln(os.Stderr, "sdtbench: -json only modifies -list (to measure performance, see bench/README.md)")
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		if *jsonOut {
			// Machine-readable listing: names, descriptions, and the
			// registered param schemas (the same document the daemon's
			// /v1/scenarios serves).
			type listEntry struct {
				Name   string              `json:"name"`
				Desc   string              `json:"desc"`
				Params []experiments.Field `json:"params,omitempty"`
			}
			var out []listEntry
			for _, e := range experiments.All() {
				out = append(out, listEntry{Name: e.Name, Desc: e.Desc, Params: e.Schema})
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				fatal("json", err)
			}
			return
		}
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.Name, e.Desc)
		}
		return
	}

	params := experiments.Params{
		Ranks:    *ranks,
		Reps:     *reps,
		Bytes:    *bytes,
		Zoo:      *zoo,
		Duration: netsim.Time(*durMs) * netsim.Millisecond,
		Workers:  *parallel,
		Seed:     *seed,
		Flows:    *flows,
		Load:     *load,
		Faults:   *nFaults,
		MTBF:     netsim.Time(*mtbf * float64(netsim.Millisecond)),
		Reconfig: *reconfigTarget,
		CC:       *cc,
	}

	// -exp takes a comma-separated list: fig12,table4 runs both;
	// "all" expands to every set. Unknown names list the valid ones.
	selected, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdtbench: %v\n", err)
		os.Exit(2)
	}

	// Ctrl-C (or SIGTERM) cancels the in-flight simulation mid-run (the
	// engine polls the stop flag every StopStride events), not just
	// between runs — the same shutdown path sdtd's drain uses.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	for _, e := range selected {
		if err := e.Run(ctx, params, os.Stdout, os.Stdout); err != nil {
			fatal(e.Name, err)
		}
	}
}

func fatal(name string, err error) {
	fmt.Fprintf(os.Stderr, "sdtbench: %s: %v\n", name, err)
	os.Exit(cli.ExitCode(err))
}
