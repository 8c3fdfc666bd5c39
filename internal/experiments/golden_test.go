package experiments

// The golden-output regression harness: every registered scenario set
// re-runs at a fixed, fast parameter point and the bytes it writes to
// the Runner's first sink are compared, raw, against a committed golden
// (testdata/golden/<name>.txt). Any change that perturbs simulation
// behaviour shows up as a golden diff and must be either fixed or
// explicitly re-recorded with
//
//	go test ./internal/experiments -run TestGolden -update
//
// Nothing is masked: host wall clock goes to the Runner's second sink
// (measured), which the harness checks only for shape — the columns
// wallColumns names are there and nowhere in the golden bytes, and
// every other set leaves it empty. The parallel pass re-runs each set
// with worker fan-out and demands the same bytes, pinning the
// any-worker-count determinism contract.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from this run")

// goldenSpec is the fixed knob point the goldens are recorded
// at — small enough to run in seconds, large enough that every code
// path (sweeps, SDT deployments, loadgen schedules, fault repairs)
// executes.
func goldenSpec() JobSpec {
	return JobSpec{
		Ranks:   8,
		Reps:    2,
		Bytes:   64 << 10,
		Zoo:     12,
		DurMs:   50,
		Workers: 1,
		Seed:    1,
		Flows:   48,
		Load:    0.8,
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// wallColumns names, per set, every column derived from this host's
// wall clock. A wall value that leaked back into the simulated bytes
// would make the golden, and sdtd's content address, host-dependent.
var wallColumns = map[string][]string{
	"fig13":            {"sim eval", "sim/full"},
	"table4":           {"eval(sim)", "speedup"},
	"loadgen-sweep-xl": {"wall(ms)", "packet", "speedup"},
}

// runGolden executes one registered set at the golden parameter point
// and returns its simulated output, after checking the measured sink
// against wallColumns.
func runGolden(t *testing.T, e Entry, p JobSpec) string {
	t.Helper()
	var out, measured bytes.Buffer
	if err := e.Run(context.Background(), p, &out, &measured); err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	cols := wallColumns[e.Name]
	if len(cols) == 0 && measured.Len() > 0 {
		t.Errorf("%s wrote to the measured sink but lists no wall columns:\n%s", e.Name, measured.String())
	}
	for _, col := range cols {
		if !strings.Contains(measured.String(), col) {
			t.Errorf("%s: wall column %q missing from the measured sink:\n%s", e.Name, col, measured.String())
		}
		if strings.Contains(out.String(), col) {
			t.Errorf("%s: wall column %q leaked into the simulated output", e.Name, col)
		}
	}
	return out.String()
}

func TestGoldenOutputs(t *testing.T) {
	p := goldenSpec()
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

// TestGoldenOutputsParallel re-runs every set on four workers and
// demands the same bytes: simulated results must not depend on the
// worker count. The count is fixed rather than "all cores", which on a
// 1-CPU host would be the serial pass again.
func TestGoldenOutputsParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are recorded from the serial pass")
	}
	p := goldenSpec()
	p.Workers = 4
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
