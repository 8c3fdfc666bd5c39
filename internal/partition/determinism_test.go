package partition

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/topology"
)

// TestCutDeterministic pins the seeded-RNG contract projection and
// reconfiguration build on: for a fixed (topology, k, seed) the full
// Result — assignment vector included — is byte-identical across
// reruns and across GOMAXPROCS settings.
func TestCutDeterministic(t *testing.T) {
	topos := []*topology.Graph{
		topology.FatTree(4),
		topology.FatTree(8),
		topology.Dragonfly(4, 9, 2, 1),
		topology.Torus2D(6, 6, 1),
	}
	for _, g := range topos {
		for _, k := range []int{2, 3, 4} {
			for _, opt := range []Options{{}, {Seed: 99}, {Objective: MinCut, Seed: 7}} {
				ref, err := Cut(g, k, opt)
				if err != nil {
					t.Fatalf("%s k=%d: %v", g.Name, k, err)
				}
				for rerun := 0; rerun < 3; rerun++ {
					got, err := Cut(g, k, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, got) {
						t.Fatalf("%s k=%d opt=%+v: rerun %d produced a different Result", g.Name, k, opt, rerun)
					}
				}
				prev := runtime.GOMAXPROCS(1)
				got, err := Cut(g, k, opt)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s k=%d opt=%+v: GOMAXPROCS=1 produced a different Result", g.Name, k, opt)
				}
			}
		}
	}
}

// TestCutZeroSeedIsFixedDefault pins that Seed 0 means "a fixed
// default", not "random": it must equal some specific non-zero seed's
// behaviour run-to-run (covered above) and, observably, always yield
// the same assignment on a given build.
func TestCutZeroSeedIsFixedDefault(t *testing.T) {
	g := topology.FatTree(4)
	a, err := Cut(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cut(g, 4, Options{Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Seed 0 does not behave as the documented fixed default (12345)")
	}
}

// TestStreamReplaysSeededSource pins the recorded restart streams to
// math/rand: for every default restart seed, and for a seed with no
// recording, the replayed Int63 values equal rand.NewSource(seed)'s for
// twice the recorded length, so the fallback past the recording's end
// is covered too.
func TestStreamReplaysSeededSource(t *testing.T) {
	seeds := []int64{99}
	for r := 0; r < restarts; r++ {
		seeds = append(seeds, restartSeed(defaultSeed, r))
	}
	for _, seed := range seeds {
		var s stream
		s.Seed(seed)
		ref := rand.NewSource(seed)
		for i := 0; i < 2*recordLen; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: draw %d = %d, rand.NewSource gives %d", seed, i, got, want)
			}
		}
	}
}

// TestCutConcurrentMatchesSerial runs Cut from 8 goroutines at once —
// the first of them may be the one that records the restart streams —
// and requires every Result to equal the serial one. Run it under -race.
func TestCutConcurrentMatchesSerial(t *testing.T) {
	type job struct {
		g   *topology.Graph
		k   int
		opt Options
	}
	jobs := []job{
		{topology.FatTree(4), 3, Options{}},
		{topology.Torus2D(6, 6, 1), 4, Options{}},
		{topology.Dragonfly(4, 9, 2, 1), 2, Options{Seed: 99}},
		{wan190(), 3, Options{}},
	}
	got := make([][]*Result, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				r, err := Cut(j.g, j.k, j.opt)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], r)
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		want, err := Cut(j.g, j.k, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if i < len(got[w]) && !reflect.DeepEqual(got[w][i], want) {
				t.Fatalf("goroutine %d: Cut(%s, %d, %+v) differs from the serial Result", w, j.g.Name, j.k, j.opt)
			}
		}
	}
}

// TestCutWorkersMatchSerial runs Cut over referenceGraphs, k = 2…8 and
// both objectives at GOMAXPROCS 1, 2 and 8 — the inline single-worker
// path, two workers, and one worker per restart — and requires the
// three Results to be identical. Run it under -race.
func TestCutWorkersMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range referenceGraphs() {
		for k := 2; k <= 8 && k <= g.NumSwitches(); k++ {
			for _, obj := range []Objective{Balanced, MinCut} {
				var want *Result
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got, err := Cut(g, k, Options{Objective: obj})
					if err != nil {
						t.Fatalf("%s k=%d: %v", g.Name, k, err)
					}
					if want == nil {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s k=%d objective=%d: GOMAXPROCS=%d gives a different Result than GOMAXPROCS=1", g.Name, k, obj, procs)
					}
				}
			}
		}
	}
}

// serialMultistart is multistart as one loop: the restarts in order on
// fresh scratch, keeping the first of the lowest scores.
func serialMultistart(wg *workGraph, k int, opt Options, seed int64) []int {
	var part []int
	bestScore := -1.0
	for r := 0; r < restarts; r++ {
		var rf refiner
		rf.reset(len(wg.vwgt), k)
		var src stream
		src.Seed(restartSeed(seed, r))
		cand := multilevel(wg, k, opt, rand.New(&src), &rf)
		if s := score(wg, cand, k, opt); bestScore < 0 || s < bestScore {
			bestScore, part = s, cand
		}
	}
	return part
}

// TestMultistartMatchesSerialLoop holds the worker pool's pick — per-restart
// slots, reduced in restart order — to serialMultistart's on the short
// reference list, including which restart wins a tie.
func TestMultistartMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, g := range referenceGraphs()[:40] {
		wg := newWorkGraph(g, g.Switches())
		for k := 2; k <= 8 && k <= len(wg.vwgt); k++ {
			for _, obj := range []Objective{Balanced, MinCut} {
				opt := testOptions(obj)
				got, want := multistart(wg, k, opt, defaultSeed), serialMultistart(wg, k, opt, defaultSeed)
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d objective=%d: multistart picked %v, the serial loop %v", g.Name, k, obj, got, want)
				}
			}
		}
	}
}
