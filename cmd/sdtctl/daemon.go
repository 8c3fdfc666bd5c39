package main

// The daemon client mode: -daemon ADDR turns sdtctl into a client of a
// running sdtd, with one action flag per API call. Spec params ride in
// -spec as the same JSON document the POST /v1/jobs body uses (the
// scenario name comes from -submit). A result body is the set's
// simulated tables only — the same bytes from any daemon; what the
// host measured is the wall figure on the status line.
//
//	sdtctl -daemon :7390 -scenarios
//	sdtctl -daemon :7390 -submit loadgen-sweep -spec '{"seed":7,"flows":48}'
//	sdtctl -daemon :7390 -submit fig12 -wait          # block, print result
//	sdtctl -daemon :7390 -status j0001-ab12cd34
//	sdtctl -daemon :7390 -result j0001-ab12cd34
//	sdtctl -daemon :7390 -cancel j0001-ab12cd34
//	sdtctl -daemon :7390 -stats -json

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/service"
)

var (
	daemonAddr = flag.String("daemon", "", "sdtd address (host:port or URL); enables the daemon client actions below")
	submitName = flag.String("submit", "", "daemon: submit a job for this scenario set (params via -spec)")
	specJSON   = flag.String("spec", "", `daemon: job spec params as JSON, e.g. '{"seed":7,"flows":48}'`)
	waitDone   = flag.Bool("wait", false, "daemon: after -submit, wait for the job and print its result")
	statusID   = flag.String("status", "", "daemon: print a job's status snapshot")
	resultID   = flag.String("result", "", "daemon: print a job's result body")
	cancelID   = flag.String("cancel", "", "daemon: cancel a job")
	scenarios  = flag.Bool("scenarios", false, "daemon: list the registry with param schemas")
	statsFlag  = flag.Bool("stats", false, "daemon: print /v1/statsz")
)

// daemonMain dispatches one daemon action. jsonOut mirrors the global
// -json flag: statuses and listings print as JSON documents instead of
// lines (result bodies are always raw).
func daemonMain(jsonOut bool) int {
	c := service.NewClient(*daemonAddr)
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	err := runDaemonAction(ctx, c, jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdtctl: %v\n", err)
	}
	return cli.ExitCode(err)
}

func runDaemonAction(ctx context.Context, c *service.Client, jsonOut bool) error {
	emit := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	sayStatus := func(st service.JobStatus) error {
		if jsonOut {
			return emit(st)
		}
		fmt.Printf("%s  %s", st.ID, st.State)
		if st.Cached {
			fmt.Print("  (cache hit)")
		}
		if st.Dedup {
			fmt.Print("  (deduped onto in-flight job)")
		}
		if st.WallMs > 0 {
			fmt.Printf("  wall %.1fms", st.WallMs)
		}
		if st.ResultBytes > 0 {
			fmt.Printf("  %dB", st.ResultBytes)
		} else if st.BytesWritten > 0 {
			fmt.Printf("  %dB so far", st.BytesWritten)
		}
		if st.Error != "" {
			fmt.Printf("  error: %s", st.Error)
		}
		fmt.Println()
		return nil
	}

	switch {
	case *submitName != "":
		spec := service.JobSpec{}
		if *specJSON != "" {
			dec := json.NewDecoder(strings.NewReader(*specJSON))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				return fmt.Errorf("-spec: %w", err)
			}
		}
		spec.Scenario = *submitName
		st, err := c.Submit(ctx, spec)
		if err != nil {
			return err
		}
		if !*waitDone || st.State.Terminal() {
			if err := sayStatus(st); err != nil {
				return err
			}
			if !*waitDone {
				return nil
			}
		} else if st, err = c.Wait(ctx, st.ID, 100*time.Millisecond); err != nil {
			return err
		}
		body, _, err := c.Result(ctx, st.ID)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(body)
		return err

	case *statusID != "":
		st, err := c.Job(ctx, *statusID)
		if err != nil {
			return err
		}
		return sayStatus(st)

	case *resultID != "":
		body, st, err := c.Result(ctx, *resultID)
		if err != nil {
			return err
		}
		if body == nil {
			return fmt.Errorf("job %s is still %s — poll again or use -submit -wait", st.ID, st.State)
		}
		_, err = os.Stdout.Write(body)
		return err

	case *cancelID != "":
		st, err := c.Cancel(ctx, *cancelID)
		if err != nil {
			return err
		}
		return sayStatus(st)

	case *scenarios:
		scens, err := c.Scenarios(ctx)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(scens)
		}
		for _, s := range scens {
			fmt.Printf("%-20s %s\n", s.Name, s.Desc)
			for _, p := range s.Schema {
				fmt.Printf("    %-10s %-8s default %-8s %s\n", p.Name, p.Type, p.Default, p.Desc)
			}
		}
		return nil

	case *statsFlag:
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(st)
		}
		fmt.Printf("uptime %.0fs  workers %d  queue %d/%d  running %d\n",
			st.UptimeSec, st.Workers, st.QueueDepth, st.QueueCap, st.Running)
		fmt.Printf("cache: %d hits (%d disk), %d misses, %d evictions, %d entries, %d/%d bytes\n",
			st.Cache.Hits, st.Cache.DiskHits, st.Cache.Misses, st.Cache.Evictions,
			st.Cache.Entries, st.Cache.Bytes, st.Cache.Budget)
		fmt.Printf("jobs: submitted %d, deduped %d, rejected %d\n", st.Submitted, st.Deduped, st.Rejected)
		for _, name := range slices.Sorted(maps.Keys(st.RunsByScenario)) {
			fmt.Printf("  runs %-20s %d\n", name, st.RunsByScenario[name])
		}
		return nil

	default:
		return fmt.Errorf("-daemon needs an action: -submit, -status, -result, -cancel, -scenarios, or -stats")
	}
}
