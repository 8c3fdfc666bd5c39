// Command bench is the repository's benchmark: it measures what a user
// of the testbed waits for — one scenario cell from spec to report, one
// control-plane round — on four workloads that each make a different
// set of layers do the work, and attributes the time to the layers by
// timing calls into their public functions from outside. See README.md
// in this directory for the metric dictionary and how to read it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

const (
	minCells = 3  // timed cells a run never goes below
	maxCells = 12 // and never above, however fast the host
)

// sample summarises one timed quantity over the (one or more)
// repetitions of a run.
type sample struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarise(v []float64) sample {
	q1, med, q3 := quartiles(v)
	return sample{N: len(v), Min: slices.Min(v), Q1: q1, Median: med, Q3: q3}
}

// runRecord is one run of one workload, as -out appends it to a file
// and -compare reads it back.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Traced   bool               `json:"traced"`
	Machine  machine            `json:"machine"`
	CellWall sample             `json:"cell_wall_s"`
	Walls    []float64          `json:"cell_walls_s"` // every timed cell, in order
	Setup    sample             `json:"setup_s"`
	Metrics  map[string]float64 `json:"metrics"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// Digest is the SHA-256 of the cells' simulated results; Stable
	// says every repetition (the traced one included) produced it.
	Digest    string   `json:"digest"`
	Stable    bool     `json:"digest_stable"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (r *runRecord) correct() bool { return r.Failed == 0 && r.Stable }

// referencer is a workload with an untimed reference run that the
// timed cells' results are held against.
type referencer interface {
	reference(g *gate, lm layerMetrics)
}

func rusage() (cpu float64, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

// runWorkload executes one run: an untimed warm-up repetition, then
// timed repetitions back to back on one goroutine until the time
// budget is spent, then (traced) one repetition phase by phase and the
// layer micro-benchmarks.
func runWorkload(def workloadDef, sc scale, seed int64, seconds int, traced bool, tr *tracer) (*runRecord, error) {
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	rec := &runRecord{Workload: def.name, Seed: seed, Seconds: seconds, Traced: traced, Machine: readMachine(), Stable: true}
	w, err := def.new(sc, seed)
	if err != nil {
		return nil, err
	}
	g := &gate{}
	lm := layerMetrics{}

	var setups []float64
	digestOf := func(d string) {
		if rec.Digest == "" {
			rec.Digest = d
		} else if d != rec.Digest {
			rec.Stable = false
			g.msgs = append(g.msgs, fmt.Sprintf("cell %d: digest %s differs from the first cell's %s", g.cell, d, rec.Digest))
		}
	}
	// prepare starts a repetition cold: collected heap, fresh inputs.
	// Set-up takes under a millisecond on two workloads, too short for
	// ten samples to pin down, so it is repeated for the scale's setupWindow and
	// every pass is a sample; only the last pass's spans are kept.
	prepare := func(rep int) error {
		g.cell, tr.cell = rep, rep
		runtime.GC()
		for begin := time.Now(); ; {
			last := time.Since(begin) >= sc.setupWindow
			spans := newTracer()
			if last {
				spans = tr
			}
			t0 := time.Now()
			err := w.setup(spans)
			setups = append(setups, time.Since(t0).Seconds())
			if err != nil || last {
				return err
			}
		}
	}

	// The warm-up repetition doubles as the memory measurement: with
	// the collector held to a tenth of heap growth, the process's peak
	// RSS after it is the memory the cell needs, not the slack the
	// collector's pacing happened to leave (which at the default
	// setting varies by a fifth between identical runs).
	if err := prepare(0); err != nil {
		return nil, err
	}
	gcPercent := debug.SetGCPercent(10)
	t0 := time.Now()
	digestOf(w.cell(g))
	cellEstimate := time.Since(t0)
	_, rssKB := rusage()
	debug.SetGCPercent(gcPercent)
	if r, ok := w.(referencer); ok {
		r.reference(g, lm)
	}

	// A traced run keeps time for the traced repetition and the
	// micro-benchmarks, which together cost about two cells.
	reserve := time.Duration(0)
	if traced {
		reserve = 2 * cellEstimate
	}
	var walls []float64
	var ms0, ms1 runtime.MemStats
	var mallocsSum, bytesSum uint64
	cpuSum := 0.0
	for rep := 1; rep <= maxCells; rep++ {
		if rep > minCells && time.Since(start)+cellEstimate+reserve > budget {
			break
		}
		if err := prepare(rep); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		cpu0, _ := rusage()
		t0 := time.Now()
		d := w.cell(g)
		walls = append(walls, time.Since(t0).Seconds())
		cpu1, _ := rusage()
		runtime.ReadMemStats(&ms1)
		digestOf(d)
		mallocsSum += ms1.Mallocs - ms0.Mallocs
		bytesSum += ms1.TotalAlloc - ms0.TotalAlloc
		cpuSum += cpu1 - cpu0
	}
	n := float64(len(walls))
	rec.CellWall, rec.Walls = summarise(walls), walls
	rec.Setup = summarise(setups)
	rec.Metrics = map[string]float64{
		"setup_s":           rec.Setup.Min,
		"cell_wall_s":       rec.CellWall.Min,
		"allocs_per_cell":   float64(mallocsSum) / n,
		"alloc_mb_per_cell": float64(bytesSum) / n / 1e6,
		"peak_rss_mb":       float64(rssKB) / 1e3,
	}

	if traced {
		if err := prepare(len(walls) + 1); err != nil {
			return nil, err
		}
		id := tr.begin("core.cell")
		d := w.traced(tr, g, lm)
		tr.end(id)
		digestOf(d)
		fillSpanTimes(lm, tr)
		derive(lm)
		w.micro(g, lm)
		lm["core.cpu_s_per_cell"] = cpuSum / n
		lm["core.trace_overhead_frac"] = tr.spans[id].dur().Seconds()/rec.CellWall.Min - 1
		rec.Layers = lm
	}
	rec.Attempted, rec.Failed, rec.Failures = g.attempted, g.failed, g.msgs
	if !rec.Stable {
		rec.Failed++
	}
	return rec, nil
}

// resultLine is the benchmark contract's last line of standard output.
func resultLine(rec *runRecord) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rec.Metrics
	if rec.Traced {
		defs, vals = perLayer, rec.Layers
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{vals[m.name], m.unit}
	}
	buf, err := json.Marshal(map[string]any{
		"correct": rec.correct(), "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	return string(buf)
}

// printReport prints every metric of the run by name and unit.
func printReport(rec *runRecord) {
	m := rec.Machine
	fmt.Printf("workload %s  seed %d  cells %d  traced %v\n", rec.Workload, rec.Seed, rec.CellWall.N, rec.Traced)
	fmt.Printf("machine: %s, nproc %d, GOMAXPROCS %d, %s, load %.2f, calib %.3f ns/op\n",
		m.CPUModel, m.NProc, m.GOMAXPROCS, m.GoVersion, m.LoadAvg1, m.CalibNsPerOp)
	fmt.Printf("digest %s (stable: %v)\n", rec.Digest, rec.Stable)
	fmt.Printf("operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	c := rec.CellWall
	fmt.Printf("cell_wall_s: min %.4f  q1 %.4f  median %.4f  q3 %.4f  n=%d\n", c.Min, c.Q1, c.Median, c.Q3, c.N)
	s := rec.Setup
	fmt.Printf("setup_s:     min %.5f  q1 %.5f  median %.5f  q3 %.5f  n=%d\n", s.Min, s.Q1, s.Median, s.Q3, s.N)
	for _, d := range endToEnd {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, rec.Metrics[d.name], d.unit)
	}
	if rec.Traced {
		fmt.Println("per layer (traced cell):")
		for _, d := range perLayer {
			fmt.Printf("  %-28s %14.6g %-6s -> %s\n", d.name, rec.Layers[d.name], d.unit, d.moves)
		}
	}
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	buf, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(buf, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runAll re-executes this binary once per workload, so that every
// workload's allocation and RSS figures are its own process's.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: one of the four names, or \"all\"")
	seed := flag.Int64("seed", 1, "offsets every generated input (schedules, placements, the topology zoo)")
	seconds := flag.Int("seconds", 25, "time budget of the run; timed cells are repeated until it is spent")
	trace := flag.Int("trace", 0, "1 adds a traced cell and reports the per-layer metrics instead of the end-to-end ones")
	spans := flag.String("spans", "", "write the recorded spans to this file as Chrome trace-event JSON")
	out := flag.String("out", "", "append the run's full record to this file, one JSON object per line")
	smoke := flag.Bool("smoke", false, "toy sizes (what the package's tests run)")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare parent.jsonl change.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parent.jsonl change.jsonl")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if *name == "all" {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		return runAll(args)
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	tr := newTracer()
	rec, err := runWorkload(def, sc, *seed, *seconds, *trace == 1, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *spans != "" {
		if err := writeChromeTrace(*spans, tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	printReport(rec)
	fmt.Println(resultLine(rec))
	if !rec.correct() {
		return 1
	}
	return 0
}
