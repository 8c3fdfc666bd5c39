package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machine describes the host a result was measured on. Times from two
// different machine records are never compared raw: calib_ns_per_op is
// the yardstick that says how far apart the hosts are.
type machine struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	LoadAvg1     float64 `json:"load_avg_1min"`
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
}

func readMachine() machine {
	m := machine{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		LoadAvg1:     loadAvg1(),
		CalibNsPerOp: calibrate(),
	}
	if m.LoadAvg1 > float64(m.NProc) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load average %.2f exceeds nproc %d; timings will be noisy\n", m.LoadAvg1, m.NProc)
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	buf, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(buf))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as "unknown" (0); the record is advisory
	return v
}

var calibSink uint32

// calibrate times a fixed kernel — a dependent pointer chase through a
// 256 KiB permutation mixed with integer arithmetic, the access pattern
// of a heap-ordered event queue — and returns nanoseconds per step,
// the best of five passes.
func calibrate() float64 {
	const size = 1 << 16
	const steps = 1 << 21
	next := make([]uint32, size)
	// One full cycle: i -> (i*a + c) mod size is a permutation with a
	// single cycle for odd c and a ≡ 1 (mod 4).
	for i := range next {
		next[i] = uint32((i*40961 + 12345) % size)
	}
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		var p, acc uint32
		for i := 0; i < steps; i++ {
			p = next[p]
			acc = acc*1664525 + p ^ (acc >> 7)
		}
		d := float64(time.Since(start).Nanoseconds()) / steps
		calibSink += acc
		if pass == 0 || d < best {
			best = d
		}
	}
	return best
}
