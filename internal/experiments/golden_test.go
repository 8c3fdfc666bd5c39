package experiments

// The golden-output regression harness: every registered scenario set
// re-runs at a fixed, fast parameter point and its formatted table is
// diffed byte-for-byte against a committed golden
// (testdata/golden/<name>.txt). This turns the "outputs byte-identical
// to the previous PR" check — done by hand in PRs 1–4 — into an
// enforced test: any change that perturbs simulation behaviour shows
// up as a golden diff and must be either fixed or explicitly
// re-recorded with
//
//	go test ./internal/experiments -run TestGolden -update
//
// Wall-clock-derived columns (fig13's sim eval / sim-vs-full factor,
// table4's eval(sim) / speedup) are masked before comparison via Scrub
// (scrub.go — shared with the service cache's hit-vs-fresh-run
// verification); every other byte must match. The parallel pass
// re-runs each set with worker fan-out and demands the same masked
// output, pinning the any-worker-count determinism contract.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from this run")

// goldenParams is the fixed parameter point the goldens are recorded
// at — small enough to run in seconds, large enough that every code
// path (sweeps, SDT deployments, loadgen schedules, fault repairs)
// executes.
func goldenParams() Params {
	return Params{
		Ranks:    8,
		Reps:     2,
		Bytes:    64 << 10,
		Zoo:      12,
		Duration: 50 * netsim.Millisecond,
		Workers:  1,
		Seed:     1,
		Flows:    48,
		Load:     0.8,
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// runGolden executes one registered set at the golden parameter point
// and returns its scrubbed output.
func runGolden(t *testing.T, e Entry, p Params) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Run(context.Background(), p, &buf); err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return Scrub(e.Name, buf.String())
}

func TestGoldenOutputs(t *testing.T) {
	p := goldenParams()
	seen := map[string]bool{}
	for _, e := range All() {
		e := e
		seen[e.Name+".txt"] = true
		t.Run(e.Name, func(t *testing.T) {
			got := runGolden(t, e, p)
			path := goldenPath(e.Name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden for %s (run with -update to record): %v", e.Name, err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from golden (re-record with -update if intended):\n%s",
					e.Name, firstDiff(string(want), got))
			}
		})
	}
	// Stale goldens — files for experiments that no longer exist — are
	// an error too: they would silently stop guarding anything.
	if !*updateGolden {
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatalf("golden dir: %v", err)
		}
		for _, ent := range entries {
			if !seen[ent.Name()] {
				t.Errorf("stale golden %s: no experiment registers this name", ent.Name())
			}
		}
	}
}

// TestGoldenOutputsParallel re-runs every set with full worker fan-out
// and demands the same scrubbed bytes: simulated results must not
// depend on the worker count.
func TestGoldenOutputsParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are recorded from the serial pass")
	}
	p := goldenParams()
	p.Workers = 0 // all cores
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			got := runGolden(t, e, p)
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("no golden for %s: %v", e.Name, err)
			}
			if got != string(want) {
				t.Errorf("%s parallel output differs from the serial golden:\n%s",
					e.Name, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first differing line with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}
