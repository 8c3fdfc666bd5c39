package telemetry

// Flow completion time (FCT) analysis for open-loop traffic: the
// closed measurement loop over loadgen schedules. Completed flows are
// bucketed by size and each bucket reports FCT and *slowdown*
// percentiles — FCT normalised by the flow's ideal completion time on
// an unloaded path — the standard datacenter-workload metric, robust
// to mixing short and long flows in one distribution.

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/netsim"
)

// DefaultFCTBuckets are the size-bucket boundaries (bytes): short
// (<10 kB), medium (<100 kB), long (<1 MB), jumbo (>= 1 MB).
func DefaultFCTBuckets() []int { return []int{10 * 1024, 100 * 1024, 1 << 20} }

// FCTBucket aggregates the completed flows with Lo <= Bytes < Hi
// (Hi = 0 means unbounded).
type FCTBucket struct {
	Lo, Hi int
	Count  int
	// Slowdown percentiles: FCT / ideal FCT.
	P50, P95, P99 float64
	// Raw FCT percentiles.
	P50FCT, P99FCT netsim.Time
}

// FCTReport is the bucketed FCT summary of one run.
type FCTReport struct {
	Buckets []FCTBucket
	// Total and Completed flow counts (incomplete flows are excluded
	// from every bucket).
	Total, Completed int
}

// MeasureFCT buckets a finished flow schedule. linkBps and base give
// the ideal-FCT model: ideal = base + bytes×8/linkBps, i.e. one
// unloaded store-and-forward traversal with fixed per-path latency
// `base` (use the fabric's end-to-end zero-load latency; 0 picks a
// conservative 2 µs). A linkBps <= 0 takes netsim.DefaultConfig's link
// rate. bounds are ascending size-bucket boundaries
// (nil = DefaultFCTBuckets).
func MeasureFCT(flows []netsim.Flow, linkBps float64, base netsim.Time, bounds []int) *FCTReport {
	if linkBps <= 0 {
		linkBps = netsim.DefaultConfig().LinkBps
	}
	if base <= 0 {
		base = 2 * netsim.Microsecond
	}
	if bounds == nil {
		bounds = DefaultFCTBuckets()
	}
	rep := &FCTReport{Total: len(flows), Buckets: make([]FCTBucket, len(bounds)+1)}
	for i := range flows {
		if flows[i].Completed {
			rep.Completed++
		}
	}
	// One array holds every bucket's samples; sorted by bucket first,
	// bucket b's are the Count of them after the lower buckets'.
	type sample struct {
		bucket int
		slow   float64
		fct    netsim.Time
	}
	all := make([]sample, 0, rep.Completed)
	for i := range flows {
		f := &flows[i]
		if !f.Completed {
			continue
		}
		fct := f.FCT()
		ideal := base + netsim.Time(float64(f.Bytes*8)/linkBps*float64(netsim.Second))
		b := sort.SearchInts(bounds, f.Bytes+1)
		rep.Buckets[b].Count++
		all = append(all, sample{bucket: b, slow: float64(fct) / float64(ideal), fct: fct})
	}
	slices.SortFunc(all, func(x, y sample) int {
		return cmp.Or(cmp.Compare(x.bucket, y.bucket), cmp.Compare(x.slow, y.slow))
	})
	lo := 0
	for b := range rep.Buckets {
		fb := &rep.Buckets[b]
		if b > 0 {
			fb.Lo = bounds[b-1]
		}
		if b < len(bounds) {
			fb.Hi = bounds[b]
		}
		ss := all[lo : lo+fb.Count]
		lo += fb.Count
		if len(ss) == 0 {
			continue
		}
		fb.P50 = ss[rank(len(ss), 0.50)].slow
		fb.P95 = ss[rank(len(ss), 0.95)].slow
		fb.P99 = ss[rank(len(ss), 0.99)].slow
		slices.SortFunc(ss, func(x, y sample) int { return cmp.Compare(x.fct, y.fct) })
		fb.P50FCT = ss[rank(len(ss), 0.50)].fct
		fb.P99FCT = ss[rank(len(ss), 0.99)].fct
	}
	return rep
}

// rank maps a percentile to a nearest-rank index in a sorted sample of
// n (the ceil(p·n) convention, clamped to the sample).
func rank(n int, p float64) int {
	// float64(x*y) keeps the product out of a fused multiply-add.
	i := int(float64(p*float64(n))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// label names a bucket's size range.
func (b *FCTBucket) label() string {
	switch {
	case b.Hi == 0:
		return fmt.Sprintf(">=%s", sizeLabel(b.Lo))
	case b.Lo == 0:
		return fmt.Sprintf("<%s", sizeLabel(b.Hi))
	default:
		return fmt.Sprintf("%s-%s", sizeLabel(b.Lo), sizeLabel(b.Hi))
	}
}

// sizeLabel formats a byte count compactly (10K, 1M).
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Format prints the bucketed report as one table.
func (r *FCTReport) Format(w io.Writer) {
	fmt.Fprintf(w, "%10s %7s %9s %9s %9s %12s %12s\n",
		"bucket", "flows", "p50 slow", "p95 slow", "p99 slow", "p50 FCT", "p99 FCT")
	for i := range r.Buckets {
		b := &r.Buckets[i]
		if b.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%10s %7d %8.2fx %8.2fx %8.2fx %10.2fus %10.2fus\n",
			b.label(), b.Count, b.P50, b.P95, b.P99,
			float64(b.P50FCT)/float64(netsim.Microsecond),
			float64(b.P99FCT)/float64(netsim.Microsecond))
	}
	if r.Completed < r.Total {
		fmt.Fprintf(w, "%d/%d flows completed\n", r.Completed, r.Total)
	}
}
