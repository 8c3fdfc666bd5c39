package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads a file written by -out.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict judges one end-to-end metric on one workload from the two
// sides' runs, paired in file order (run the sides alternately, ten
// pairs or more, so that pair i of each file ran back to back):
//
//   - improved: the change wins at least nine tenths of the pairs and
//     the medians differ by more than the parent's own quartile spread;
//   - regressed: the change's median is worse than the parent's by
//     more than the metric's bound;
//   - unresolved: neither, but a side's quartile spread is wider than
//     the bound, so "no regression" cannot be told from noise — unless
//     every run of the change beats every run of the parent;
//   - unchanged: otherwise.
func verdict(m metricDef, parent, change []float64) string {
	sign := 1.0 // positive delta = worse
	if m.better == "higher" {
		sign = -1
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	pairs, wins := len(parent), 0
	if len(change) < pairs {
		pairs = len(change)
	}
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			wins++
		}
	}
	delta := sign * (cmed - pmed)
	if pairs >= 10 && wins*10 >= pairs*9 && delta < 0 && -delta > pq3-pq1 {
		return "improved"
	}
	if delta > m.bound*math.Abs(pmed) {
		return "regressed"
	}
	wide := pq3-pq1 > m.bound*math.Abs(pmed) || cq3-cq1 > m.bound*math.Abs(cmed)
	if wide {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				if sign*(c-p) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "unchanged"
}

// compareFiles prints, per workload, the end-to-end verdict table and
// the per-layer difference table of two sets of runs. It reports; it
// gates nothing.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if len(parent) > 0 && len(change) > 0 {
		p, c := parent[0].Machine, change[0].Machine
		fmt.Fprintf(w, "parent: %s, nproc %d, %s, calib %.3f ns/op\n", p.CPUModel, p.NProc, p.GoVersion, p.CalibNsPerOp)
		fmt.Fprintf(w, "change: %s, nproc %d, %s, calib %.3f ns/op\n", c.CPUModel, c.NProc, c.GoVersion, c.CalibNsPerOp)
		if p.CPUModel != c.CPUModel || p.NProc != c.NProc {
			fmt.Fprintln(w, "WARNING: the two sets come from different machines; times are not comparable")
		}
	}
	// column collects one metric's values over the matching runs.
	column := func(recs []runRecord, workload string, traced bool, name string) []float64 {
		var out []float64
		for i := range recs {
			r := &recs[i]
			if r.Workload != workload || r.Traced != traced {
				continue
			}
			if traced {
				out = append(out, r.Layers[name])
			} else {
				out = append(out, r.Metrics[name])
			}
		}
		return out
	}
	for _, def := range workloads {
		digests := map[int64][2]string{}
		failedP, failedC := 0, 0
		for _, r := range parent {
			if r.Workload == def.name {
				d := digests[r.Seed]
				d[0] = r.Digest
				digests[r.Seed] = d
				failedP += r.Failed
			}
		}
		for _, r := range change {
			if r.Workload == def.name {
				d := digests[r.Seed]
				d[1] = r.Digest
				digests[r.Seed] = d
				failedC += r.Failed
			}
		}
		if len(digests) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", def.name)
		seeds := make([]int64, 0, len(digests))
		for seed := range digests {
			seeds = append(seeds, seed)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, seed := range seeds {
			d := digests[seed]
			switch {
			case d[0] == "" || d[1] == "":
			case d[0] == d[1]:
				fmt.Fprintf(w, "seed %d: simulated results identical (digest %.12s)\n", seed, d[0])
			default:
				fmt.Fprintf(w, "seed %d: SIMULATED RESULTS DIFFER (digest %.12s -> %.12s)\n", seed, d[0], d[1])
			}
		}
		fmt.Fprintf(w, "failed operations: parent %d, change %d\n", failedP, failedC)
		fmt.Fprintf(w, "%-20s %5s  %36s  %36s  %6s  %s\n", "end-to-end", "unit", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "bound", "verdict")
		for _, m := range endToEnd {
			pv, cv := column(parent, def.name, false, m.name), column(change, def.name, false, m.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pq1, pmed, pq3 := quartiles(pv)
			cq1, cmed, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-20s %5s  %12.6g [%9.6g, %9.6g] (%2d)  %12.6g [%9.6g, %9.6g] (%2d)  %5.0f%%  %s\n",
				m.name, m.unit, pmed, pq1, pq3, len(pv), cmed, cq1, cq3, len(cv), m.bound*100, verdict(m, pv, cv))
		}
		header := false
		for _, m := range perLayer {
			pv, cv := column(parent, def.name, true, m.name), column(change, def.name, true, m.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pmed, cmed := median(pv), median(cv)
			if pmed == 0 && cmed == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "%-28s %6s %14s %14s %9s  %s\n", "per layer (medians)", "unit", "parent", "change", "delta", "should move")
				header = true
			}
			delta := "n/a"
			if pmed != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cmed-pmed)/pmed)
			}
			fmt.Fprintf(w, "%-28s %6s %14.6g %14.6g %9s  %s\n", m.name, m.unit, pmed, cmed, delta, m.moves)
		}
	}
	return nil
}
