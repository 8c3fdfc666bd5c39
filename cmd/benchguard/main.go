// Command benchguard compares a fresh `sdtbench -json` report against
// the committed perf-trajectory baseline (BENCH_<pr>.json) and fails
// if the headline experiment's wall clock regressed beyond tolerance —
// the enforcement half of the BENCH_*.json trajectory: committing a
// baseline is only useful if CI refuses changes that quietly walk it
// back.
//
// Usage:
//
//	sdtbench -exp fig12 -json > current.json
//	benchguard -baseline BENCH_6.json -current current.json
//
// Only experiments present in BOTH reports are compared; the headline
// (-headline, default fig12) must be among them. Wall-clock checks are
// regression-only: a faster machine passes, a >tolerance slowdown
// fails.
//
// -min-flowsim-speedup gates loadgen-sweep-xl's flowsim_speedup metric
// (flow-fidelity vs packet-fidelity wall clock on a common fabric)
// whenever the current report carries it. That comparison is serial on
// both sides, so it applies at any CPU count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the subset of sdtbench's -json document benchguard
// reads.
type report struct {
	Results []struct {
		Experiment string             `json:"experiment"`
		WallMs     float64            `json:"wall_ms"`
		Metrics    map[string]float64 `json:"metrics"`
	} `json:"results"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) wall(name string) (float64, bool) {
	for _, res := range r.Results {
		if res.Experiment == name {
			return res.WallMs, true
		}
	}
	return 0, false
}

func (r *report) metric(name string) (float64, bool) {
	for _, res := range r.Results {
		if v, ok := res.Metrics[name]; ok {
			return v, true
		}
	}
	return 0, false
}

func main() {
	baselinePath := flag.String("baseline", "", "committed BENCH_<pr>.json baseline")
	currentPath := flag.String("current", "", "fresh sdtbench -json report")
	headline := flag.String("headline", "fig12", "experiment whose wall clock is gated")
	tolerance := flag.Float64("tolerance", 0.20, "allowed relative wall-clock regression")
	minFlowSpeedup := flag.Float64("min-flowsim-speedup", 1.0, "flowsim_speedup floor: flow fidelity must beat packet wall clock (0 disables)")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are required")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}

	failed := false
	bw, ok := base.wall(*headline)
	if !ok {
		fatal(fmt.Errorf("baseline has no %q entry", *headline))
	}
	cw, ok := cur.wall(*headline)
	if !ok {
		fatal(fmt.Errorf("current report has no %q entry", *headline))
	}
	limit := bw * (1 + *tolerance)
	if cw > limit {
		fmt.Printf("FAIL %s wall: %.1f ms vs baseline %.1f ms (limit %.1f ms, +%.0f%%)\n",
			*headline, cw, bw, limit, *tolerance*100)
		failed = true
	} else {
		fmt.Printf("ok   %s wall: %.1f ms vs baseline %.1f ms (limit %.1f ms)\n",
			*headline, cw, bw, limit)
	}

	// The flowsim gate is serial on both sides (one engine, one core),
	// so it applies regardless of CPU count: flow fidelity exists to be
	// faster than packet fidelity, and a report that carries the metric
	// but misses the floor is a regression.
	if *minFlowSpeedup > 0 {
		if v, ok := cur.metric("flowsim_speedup"); ok {
			if v < *minFlowSpeedup {
				fmt.Printf("FAIL flowsim_speedup: %.2fx < %.2fx floor\n", v, *minFlowSpeedup)
				failed = true
			} else {
				fmt.Printf("ok   flowsim_speedup: %.2fx (floor %.2fx)\n", v, *minFlowSpeedup)
			}
		}
	}

	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
