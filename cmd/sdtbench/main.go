// Command sdtbench regenerates the paper's tables and figures
// (EXPERIMENTS.md records the outputs). The experiments come from the
// scenario registry (internal/experiments Register/Lookup), so the CLI
// is a thin shell: its flags are experiments.JobSpec's knobs, names
// resolve through the registry, and Ctrl-C cancels in-flight
// simulations mid-run via context cancellation threaded into the engine
// loop.
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
// Every knob flag is the JobSpec field of the same name — the job spec
// sdtd accepts — except -dur, -mtbf and -parallel for dur_ms, mtbf_ms
// and workers. Each selected set reads only the knobs its schema lists,
// and a knob left unset takes that set's default as the schema states
// it (-list -json), so `sdtbench -exp fig13` and the sdtd job
// {"scenario":"fig13"} run the same spec. Values are checked as sdtd
// checks a submission.
//
// Each set prints its simulated tables — the same bytes on every host
// and at any worker count. fig13, table4 and loadgen-sweep-xl follow
// theirs with a second table, titled "measured on this host,
// workers=N", holding the wall-clock figures (the simulator's own
// evaluation time and the speedups derived from it). To measure the
// program's performance use the benchmark in bench/ (bench/README.md).
//
// -parallel N runs sweep experiments one independent simulation per
// worker (0 = all cores). sdtbench runs serially unless told otherwise:
// read the measured tables from serial runs, contended workers inflate
// them.
//
// -reconfig selects reconfig-under-load's transition target topology:
// dragonfly (the default) or torus. reconfig-sweep ignores it — its
// grid fixes the transition pairs.
//
// -cc restricts cc-shootout to one congestion-control policy (dcqcn,
// timely, or pfabric); empty races all three.
//
// -cpuprofile and -memprofile write a CPU profile of the run and an
// allocation profile as it ends, for `go tool pprof`; they change
// nothing the run prints.
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
)

// flagNames keeps the CLI's shorter spelling of three knobs.
var flagNames = map[string]string{"dur_ms": "dur", "mtbf_ms": "mtbf", "workers": "parallel"}

func main() {
	os.Exit(run())
}

func run() (code int) {
	names := experiments.Names()
	exp := flag.String("exp", "all", "experiment (comma-separated): "+strings.Join(names, "|")+"|all")
	spec := experiments.JobSpec{Workers: 1} // serial unless -parallel says otherwise
	for _, k := range experiments.Knobs() {
		name, usage := k.Name, k.Desc+" ("+k.Type+"; unset = each set's default, see -list -json)"
		if short, ok := flagNames[k.Name]; ok {
			name = short
		}
		if k.Name == "workers" {
			usage = k.Desc + " (int; default 1, serial)"
		}
		flag.Func(name, usage, func(v string) error { return spec.Set(k.Name, v) })
	}
	jsonOut := flag.Bool("json", false, "with -list: emit the registry (names, descriptions, param schemas) as JSON")
	list := flag.Bool("list", false, "list registered experiments with their descriptions and exit")
	prof := cli.ProfileFlags()
	flag.Parse()

	if *jsonOut && !*list {
		fmt.Fprintln(os.Stderr, "sdtbench: -json only modifies -list (to measure performance, see bench/README.md)")
		flag.Usage()
		return 2
	}
	if *list {
		if *jsonOut {
			// The registry entries are the listing document the daemon's
			// /v1/scenarios serves too.
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(experiments.All()); err != nil {
				return fatal("json", err)
			}
			return 0
		}
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	// -exp takes a comma-separated list: fig12,table4 runs both;
	// "all" expands to every set. Unknown names list the valid ones.
	selected, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdtbench: %v\n", err)
		return 2
	}

	if err := prof.Start(); err != nil {
		return fatal("profile", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil && code == 0 {
			code = fatal("profile", err)
		}
	}()

	// Ctrl-C (or SIGTERM) cancels the in-flight simulation mid-run (the
	// engine polls the stop flag every StopStride events), not just
	// between runs — the same shutdown path sdtd's drain uses.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	for _, e := range selected {
		if err := e.Run(ctx, spec, os.Stdout, os.Stdout); err != nil {
			return fatal(e.Name, err)
		}
	}
	return 0
}

// fatal reports a failed step and returns the exit code for its error.
func fatal(name string, err error) int {
	fmt.Fprintf(os.Stderr, "sdtbench: %s: %v\n", name, err)
	return cli.ExitCode(err)
}
