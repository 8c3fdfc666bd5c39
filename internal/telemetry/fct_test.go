package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// mkflow builds a completed flow of a given size and FCT.
func mkflow(bytesN int, fct netsim.Time) netsim.Flow {
	return netsim.Flow{Src: 0, Dst: 1, Bytes: bytesN, Start: 0, End: fct, Completed: true}
}

func TestFCTBucketAccounting(t *testing.T) {
	// base 1us, 1KB at 10G serialises in 0.8192us: ideal ~1.8192us.
	base := netsim.Microsecond
	flows := []netsim.Flow{
		mkflow(1024, 2*netsim.Microsecond),             // short bucket
		mkflow(1024, 20*netsim.Microsecond),            // short bucket
		mkflow(50*1024, 100*netsim.Microsecond),        // medium bucket
		mkflow(2<<20, 3*netsim.Millisecond),            // jumbo bucket
		{Src: 0, Dst: 1, Bytes: 512, Completed: false}, // incomplete: excluded
	}
	rep := MeasureFCT(flows, 10e9, base, nil)
	if rep.Total != 5 || rep.Completed != 4 {
		t.Fatalf("total/completed = %d/%d, want 5/4", rep.Total, rep.Completed)
	}
	if len(rep.Buckets) != 4 {
		t.Fatalf("%d buckets, want 4", len(rep.Buckets))
	}
	wantCounts := []int{2, 1, 0, 1}
	for i, want := range wantCounts {
		if rep.Buckets[i].Count != want {
			t.Fatalf("bucket %d count %d, want %d", i, rep.Buckets[i].Count, want)
		}
	}
	// Short bucket: FCTs 2us and 20us -> p50 = 2us, p99 = 20us.
	b := rep.Buckets[0]
	if b.P50FCT != 2*netsim.Microsecond || b.P99FCT != 20*netsim.Microsecond {
		t.Fatalf("short bucket FCT p50/p99 = %v/%v", b.P50FCT, b.P99FCT)
	}
	// Slowdown of the faster short flow: 2us / (1us + 0.8192us).
	wantSlow := float64(2*netsim.Microsecond) / float64(base+netsim.Time(1024*8*100)) // 100 ps/bit at 10G
	if diff := b.P50 - wantSlow; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("short bucket p50 slowdown %.6f, want %.6f", b.P50, wantSlow)
	}
	// A single-sample bucket reports that sample at every percentile.
	j := rep.Buckets[3]
	if j.P50 != j.P99 || j.P50FCT != 3*netsim.Millisecond {
		t.Fatalf("jumbo bucket percentiles %v %v %v", j.P50, j.P99, j.P50FCT)
	}
}

func TestFCTBucketBoundaries(t *testing.T) {
	// A flow exactly at a boundary lands in the upper bucket (Lo <= b < Hi).
	flows := []netsim.Flow{mkflow(10*1024, netsim.Microsecond)}
	rep := MeasureFCT(flows, 10e9, 0, []int{10 * 1024})
	if rep.Buckets[0].Count != 0 || rep.Buckets[1].Count != 1 {
		t.Fatalf("boundary flow in wrong bucket: %+v", rep.Buckets)
	}
}

func TestFCTFormat(t *testing.T) {
	flows := []netsim.Flow{mkflow(1024, 2*netsim.Microsecond), {Bytes: 5, Src: 0, Dst: 1}}
	var buf bytes.Buffer
	MeasureFCT(flows, 10e9, 0, nil).Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "<10K") || !strings.Contains(out, "1/2 flows completed") {
		t.Fatalf("unexpected format output:\n%s", out)
	}
}

// TestFCTZeroCompleted: a schedule with no completions (and the empty
// schedule) must produce a well-formed all-zero report — the flow-
// fidelity differential harness divides by bucket percentiles, so
// empty buckets have to stay identifiably empty (Count 0, zero
// percentiles), never NaN or stale values.
func TestFCTZeroCompleted(t *testing.T) {
	flows := []netsim.Flow{
		{Src: 0, Dst: 1, Bytes: 1024},
		{Src: 1, Dst: 2, Bytes: 50 * 1024},
		{Src: 2, Dst: 3, Bytes: 2 << 20},
	}
	for _, tc := range []struct {
		name  string
		flows []netsim.Flow
		total int
	}{
		{"none-completed", flows, 3},
		{"empty-schedule", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := MeasureFCT(tc.flows, 10e9, 0, nil)
			if rep.Total != tc.total || rep.Completed != 0 {
				t.Fatalf("total/completed = %d/%d, want %d/0", rep.Total, rep.Completed, tc.total)
			}
			if len(rep.Buckets) != 4 {
				t.Fatalf("%d buckets, want 4", len(rep.Buckets))
			}
			for i, b := range rep.Buckets {
				if b.Count != 0 {
					t.Fatalf("bucket %d counted %d flows with none completed", i, b.Count)
				}
				if b.P50 != 0 || b.P95 != 0 || b.P99 != 0 || b.P50FCT != 0 || b.P99FCT != 0 {
					t.Fatalf("empty bucket %d has non-zero percentiles: %+v", i, b)
				}
			}
			var buf bytes.Buffer
			rep.Format(&buf)
			out := buf.String()
			if tc.total > 0 && !strings.Contains(out, "0/3 flows completed") {
				t.Fatalf("format did not report the incomplete count:\n%s", out)
			}
			if strings.Contains(out, "NaN") {
				t.Fatalf("format leaked NaN:\n%s", out)
			}
		})
	}
}

// TestFCTSingleFlowBuckets: one completed flow per bucket — every
// percentile of a one-sample bucket is that sample, for slowdown and
// raw FCT alike.
func TestFCTSingleFlowBuckets(t *testing.T) {
	base := netsim.Microsecond
	flows := []netsim.Flow{
		mkflow(1024, 2*netsim.Microsecond),
		mkflow(50*1024, 100*netsim.Microsecond),
		mkflow(512*1024, netsim.Millisecond),
		mkflow(2<<20, 3*netsim.Millisecond),
	}
	rep := MeasureFCT(flows, 10e9, base, nil)
	if rep.Completed != 4 {
		t.Fatalf("completed %d, want 4", rep.Completed)
	}
	for i, b := range rep.Buckets {
		if b.Count != 1 {
			t.Fatalf("bucket %d count %d, want 1", i, b.Count)
		}
		want := flows[i].FCT()
		if b.P50FCT != want || b.P99FCT != want {
			t.Fatalf("bucket %d FCT p50/p99 = %v/%v, want both %v", i, b.P50FCT, b.P99FCT, want)
		}
		if b.P50 != b.P95 || b.P95 != b.P99 {
			t.Fatalf("bucket %d slowdown percentiles differ on one sample: %+v", i, b)
		}
		ideal := base + netsim.Time(float64(flows[i].Bytes*8)/10e9*float64(netsim.Second))
		wantSlow := float64(want) / float64(ideal)
		if diff := b.P50 - wantSlow; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bucket %d slowdown %.6f, want %.6f", i, b.P50, wantSlow)
		}
	}
}

func TestNearestRank(t *testing.T) {
	// n=100: p50 -> index 49, p99 -> index 98; n=1: everything index 0.
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{100, 0.50, 49}, {100, 0.95, 94}, {100, 0.99, 98},
		{1, 0.5, 0}, {1, 0.99, 0}, {2, 0.5, 0}, {2, 0.99, 1}, {3, 0.5, 1},
	}
	for _, c := range cases {
		if got := rank(c.n, c.p); got != c.want {
			t.Fatalf("rank(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestMeasureFCTAllocsFlat: a call allocates the report, its buckets and
// one array for every bucket's samples, however many flows it measures.
func TestMeasureFCTAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		flows := make([]netsim.Flow, n)
		for i := range flows {
			flows[i] = mkflow(1+(i*7919)%(2<<20), netsim.Time(1+i%97)*netsim.Microsecond)
		}
		return testing.AllocsPerRun(5, func() { MeasureFCT(flows, 10e9, 0, nil) })
	}
	small, large := allocs(16), allocs(20000)
	if small != large || large > 3 {
		t.Errorf("MeasureFCT allocates %.0f objects for 16 flows and %.0f for 20000, want the same and at most 3", small, large)
	}
}
