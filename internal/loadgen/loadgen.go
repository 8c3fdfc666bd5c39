// Package loadgen synthesizes open-loop datacenter-style traffic: flow
// arrivals drawn from a seeded Poisson process at a target load factor,
// communicating pairs chosen by a pluggable pattern (uniform-random,
// permutation, incast N:1, hotspot), and flow sizes drawn from a
// configurable distribution (fixed, the web-search heavy-tailed CDF, or
// a custom one).
//
// This is the non-MPI half of the workload catalogue (WORKLOADS.md):
// where package workload replays closed-loop rank programs, loadgen
// produces an open-loop schedule — flows inject at their arrival times
// regardless of completions, the arrival model under which flow
// completion time (FCT) and slowdown are defined.
//
// A generated FlowSet can run two ways:
//
//   - live, through the netsim flow-application layer (core.Scenario
//     with Flows set): one schedule entry per flow, so million-flow
//     runs never materialise per-op programs; or
//   - compiled into a replayable workload.Trace (FlowSet.Trace) for
//     anything that consumes traces — including the JSON-lines trace
//     file format of workload/trace.go.
//
// Everything is a pure function of the Spec: the same seed produces a
// byte-identical schedule (and compiled trace) on every run.
package loadgen

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/workload"
)

// Spec describes one synthetic workload.
type Spec struct {
	// Ranks is the number of traffic endpoints (>= 2).
	Ranks int
	// Pattern chooses communicating pairs (nil = Uniform).
	Pattern Pattern
	// Sizes draws flow sizes (nil = WebSearch).
	Sizes SizeDist
	// Load is the offered load as a fraction of the bottleneck link
	// capacity, in (0, 1]: flow arrivals form a Poisson process with
	// aggregate rate Load × Bottlenecks × LinkBps / (8 × mean size).
	Load float64
	// Flows is how many flows to synthesize (> 0).
	Flows int
	// Seed drives every random draw. Equal specs generate byte-equal
	// schedules.
	Seed int64
	// LinkBps is the host link rate the load is offered against
	// (0 = netsim.DefaultConfig's link rate).
	LinkBps float64
}

// FlowSet is a generated schedule: the spec it came from plus the
// synthesized flows, ordered by start time. Flow Src/Dst are rank
// indices (netsim.FlowApp and core.Scenario map them onto hosts).
type FlowSet struct {
	Spec  Spec
	Name  string
	Flows []netsim.Flow
}

// Generate synthesizes the flow schedule for a spec.
func (s Spec) Generate() (*FlowSet, error) {
	if s.Ranks < 2 {
		return nil, fmt.Errorf("loadgen: need >= 2 ranks, got %d", s.Ranks)
	}
	if s.Flows <= 0 {
		return nil, fmt.Errorf("loadgen: need > 0 flows, got %d", s.Flows)
	}
	if s.Load <= 0 || s.Load > 1 {
		return nil, fmt.Errorf("loadgen: load %g outside (0, 1]", s.Load)
	}
	if s.Pattern == nil {
		s.Pattern = Uniform()
	}
	if s.Sizes == nil {
		s.Sizes = WebSearch()
	}
	if s.LinkBps == 0 {
		s.LinkBps = netsim.DefaultConfig().LinkBps
	}
	if s.LinkBps < 0 {
		return nil, fmt.Errorf("loadgen: negative link rate %g", s.LinkBps)
	}
	r := NewRNG(s.Seed)
	pair := s.Pattern.Instantiate(r, s.Ranks)
	mean := s.Sizes.Mean()
	// Aggregate arrival rate in flows/second: the load factor times the
	// bottleneck capacity, divided by the mean flow size in bits.
	lambda := s.Load * float64(s.Pattern.Bottlenecks(s.Ranks)) * s.LinkBps / (8 * mean)
	fs := &FlowSet{
		Spec: s,
		Name: fmt.Sprintf("loadgen-%s-%s-l%g-s%d", s.Pattern.Name(), s.Sizes.Name(), s.Load, s.Seed),
	}
	fs.Flows = make([]netsim.Flow, s.Flows)
	t := 0.0 // seconds
	for i := range fs.Flows {
		t += r.Exp() / lambda
		src, dst := pair(i)
		fs.Flows[i] = netsim.Flow{
			Src: src, Dst: dst,
			Bytes: s.Sizes.Sample(r),
			Start: netsim.Time(t * float64(netsim.Second)),
			Tag:   i,
		}
	}
	return fs, nil
}

// MustGenerate is Generate for callers that prefer a panic.
func (s Spec) MustGenerate() *FlowSet {
	fs, err := s.Generate()
	if err != nil {
		panic(err)
	}
	return fs
}

// TotalBytes sums the schedule's flow sizes.
func (fs *FlowSet) TotalBytes() int64 {
	var n int64
	for i := range fs.Flows {
		n += int64(fs.Flows[i].Bytes)
	}
	return n
}

// Trace compiles the schedule into a replayable workload.Trace: per
// rank, compute gaps recreate each outbound flow's start time followed
// by an eager send, then one matching receive per inbound flow. All of
// a rank's sends precede its receives so replay never blocks an
// injection on an arrival — the open-loop timing is preserved exactly
// (sends are non-blocking in the app layer) and a run replaying the
// trace completes at the same simulated time as running the FlowSet
// live. The cost is one op per send/recv — prefer running the FlowSet
// live (core.Scenario.Flows) for very large schedules.
func (fs *FlowSet) Trace() *workload.Trace {
	sends := make([][]netsim.Op, fs.Spec.Ranks)
	recvs := make([][]netsim.Op, fs.Spec.Ranks)
	// Per-source local time so compute gaps sum to absolute starts.
	clock := make([]netsim.Time, fs.Spec.Ranks)
	for i := range fs.Flows {
		f := &fs.Flows[i]
		if gap := f.Start - clock[f.Src]; gap > 0 {
			sends[f.Src] = append(sends[f.Src], netsim.Op{Kind: netsim.OpCompute, Dur: gap})
			clock[f.Src] = f.Start
		}
		sends[f.Src] = append(sends[f.Src], netsim.Op{
			Kind: netsim.OpSend, Peer: f.Dst, Bytes: f.Bytes, MTag: f.Tag,
		})
		recvs[f.Dst] = append(recvs[f.Dst], netsim.Op{
			Kind: netsim.OpRecv, Peer: f.Src, MTag: f.Tag,
		})
	}
	progs := make([][]netsim.Op, fs.Spec.Ranks)
	for r := range progs {
		progs[r] = append(sends[r], recvs[r]...)
	}
	return &workload.Trace{Name: fs.Name, Ranks: fs.Spec.Ranks, Programs: progs}
}
