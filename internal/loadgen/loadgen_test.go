package loadgen

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netsim"
)

func spec(pat Pattern) Spec {
	return Spec{Ranks: 16, Pattern: pat, Sizes: WebSearch(), Load: 0.5, Flows: 400, Seed: 42}
}

// Same seed => byte-identical schedule and compiled trace; different
// seed => different schedule.
func TestDeterminism(t *testing.T) {
	a := spec(Uniform()).MustGenerate()
	b := spec(Uniform()).MustGenerate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different schedules")
	}
	if !reflect.DeepEqual(a.Trace(), b.Trace()) {
		t.Fatal("same spec compiled to different traces")
	}
	s := spec(Uniform())
	s.Seed = 43
	c := s.MustGenerate()
	if reflect.DeepEqual(a.Flows, c.Flows) {
		t.Fatal("different seeds generated identical schedules")
	}
}

// Arrivals must be strictly ordered and Poisson at roughly the target
// rate implied by the load factor.
func TestArrivalProcess(t *testing.T) {
	s := Spec{Ranks: 16, Sizes: FixedSize(100 * 1024), Load: 0.5, Flows: 4000, Seed: 7}
	fs := s.MustGenerate()
	prev := netsim.Time(-1)
	for i := range fs.Flows {
		if fs.Flows[i].Start <= prev {
			t.Fatalf("flow %d start %v not after %v", i, fs.Flows[i].Start, prev)
		}
		prev = fs.Flows[i].Start
	}
	// Expected aggregate rate: 0.5 * 16 * 10e9 / (8 * 100KiB) flows/s.
	lambda := 0.5 * 16 * 10e9 / (8 * 100 * 1024)
	want := float64(s.Flows) / lambda // seconds
	got := fs.Flows[len(fs.Flows)-1].Start.Seconds()
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("arrival window %.4fs, want ~%.4fs", got, want)
	}
}

// Pattern-independent invariants: ranks in range, no self-flows,
// positive sizes.
func TestPatternInvariants(t *testing.T) {
	pats := []Pattern{
		Uniform(), Permutation(), Incast(0), Incast(5),
		Hotspot(0, 0), Hotspot(3, 0.9),
	}
	for _, p := range pats {
		fs := spec(p).MustGenerate()
		for i := range fs.Flows {
			f := &fs.Flows[i]
			if f.Src < 0 || f.Src >= 16 || f.Dst < 0 || f.Dst >= 16 {
				t.Fatalf("%s: flow %d endpoint out of range: %+v", p.Name(), i, f)
			}
			if f.Src == f.Dst {
				t.Fatalf("%s: flow %d sends to itself", p.Name(), i)
			}
			if f.Bytes < 1 {
				t.Fatalf("%s: flow %d has %d bytes", p.Name(), i, f.Bytes)
			}
		}
	}
}

// The permutation pattern must be a fixed-point-free bijection: every
// source maps to exactly one destination and no two sources share one.
func TestPermutationBijection(t *testing.T) {
	fs := spec(Permutation()).MustGenerate()
	img := map[int]int{}
	for i := range fs.Flows {
		f := &fs.Flows[i]
		if d, ok := img[f.Src]; ok && d != f.Dst {
			t.Fatalf("src %d maps to both %d and %d", f.Src, d, f.Dst)
		}
		img[f.Src] = f.Dst
	}
	seen := map[int]bool{}
	for src, dst := range img {
		if src == dst {
			t.Fatalf("fixed point at %d", src)
		}
		if seen[dst] {
			t.Fatalf("destination %d has two sources", dst)
		}
		seen[dst] = true
	}
	// 400 flows over 16 ranks: every rank should have appeared.
	if len(img) != 16 {
		t.Fatalf("only %d/16 sources injected", len(img))
	}
}

// Incast fan-in must be exact: one victim, exactly N distinct senders.
func TestIncastFanIn(t *testing.T) {
	const fanin = 5
	fs := spec(Incast(fanin)).MustGenerate()
	victims := map[int]bool{}
	senders := map[int]bool{}
	for i := range fs.Flows {
		victims[fs.Flows[i].Dst] = true
		senders[fs.Flows[i].Src] = true
	}
	if len(victims) != 1 {
		t.Fatalf("incast has %d victims, want 1", len(victims))
	}
	if len(senders) != fanin {
		t.Fatalf("incast has %d senders, want %d", len(senders), fanin)
	}
	for v := range victims {
		if senders[v] {
			t.Fatal("victim is also a sender")
		}
	}
}

// Hotspot traffic must concentrate on the hot set.
func TestHotspotSkew(t *testing.T) {
	s := spec(Hotspot(2, 0.7))
	s.Flows = 4000
	fs := s.MustGenerate()
	counts := map[int]int{}
	for i := range fs.Flows {
		counts[fs.Flows[i].Dst]++
	}
	// The two hottest destinations should carry roughly 70% of flows.
	max1, max2 := 0, 0
	for _, c := range counts {
		if c > max1 {
			max1, max2 = c, max1
		} else if c > max2 {
			max2 = c
		}
	}
	frac := float64(max1+max2) / float64(len(fs.Flows))
	if frac < 0.6 || frac > 0.85 {
		t.Fatalf("hot fraction %.3f, want ~0.7", frac)
	}
}

// The compiled trace must validate and preserve volume and timing.
func TestTraceCompile(t *testing.T) {
	fs := spec(Hotspot(0, 0)).MustGenerate()
	tr := fs.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, prog := range tr.Programs {
		for _, op := range prog {
			if op.Kind == netsim.OpSend {
				got += int64(op.Bytes)
			}
		}
	}
	if want := fs.TotalBytes(); got != want {
		t.Fatalf("trace carries %d bytes, schedule %d", got, want)
	}
	// Per source, compute gaps must reconstruct each send's start time.
	clock := make([]netsim.Time, fs.Spec.Ranks)
	starts := map[int]netsim.Time{} // tag -> reconstructed start
	for r, prog := range tr.Programs {
		for _, op := range prog {
			switch op.Kind {
			case netsim.OpCompute:
				clock[r] += op.Dur
			case netsim.OpSend:
				starts[op.MTag] = clock[r]
			}
		}
	}
	for i := range fs.Flows {
		f := &fs.Flows[i]
		if starts[f.Tag] != f.Start {
			t.Fatalf("flow %d replays at %v, scheduled %v", i, starts[f.Tag], f.Start)
		}
	}
}

// CDF sanity: samples within support, mean matches the analytic mean.
func TestSizeDistributions(t *testing.T) {
	for _, d := range []SizeDist{WebSearch(), ScaleSizes(WebSearch(), 1.0/64)} {
		r := NewRNG(1)
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			b := d.Sample(r)
			if b < 1 {
				t.Fatalf("%s sampled %d", d.Name(), b)
			}
			sum += float64(b)
		}
		got := sum / n
		if math.Abs(got-d.Mean())/d.Mean() > 0.1 {
			t.Fatalf("%s empirical mean %.0f, analytic %.0f", d.Name(), got, d.Mean())
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Ranks: 1, Load: 0.5, Flows: 10},
		{Ranks: 8, Load: 0, Flows: 10},
		{Ranks: 8, Load: 1.5, Flows: 10},
		{Ranks: 8, Load: 0.5, Flows: 0},
	}
	for _, s := range bad {
		if _, err := s.Generate(); err == nil {
			t.Fatalf("spec %+v generated without error", s)
		}
	}
}
