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
// reconfiguration build on: for a fixed (topology, k) the full Result — assignment vector included — is byte-identical across
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
			ref, err := Cut(g, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", g.Name, k, err)
			}
			for rerun := 0; rerun < 3; rerun++ {
				got, err := Cut(g, k, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s k=%d: rerun %d produced a different Result", g.Name, k, rerun)
				}
			}
			prev := runtime.GOMAXPROCS(1)
			got, err := Cut(g, k, Options{})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s k=%d: GOMAXPROCS=1 produced a different Result", g.Name, k)
			}
		}
	}
}

// TestCutSeedIsFixed pins the seed Cut's restarts derive from to 12345,
// the value every golden and bench digest was recorded under: Cut must
// pick serialMultistart's partition with the restart streams of that
// literal seed.
func TestCutSeedIsFixed(t *testing.T) {
	g := topology.FatTree(4)
	r, err := Cut(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw := g.Switches()
	want := serialMultistart(newTestWorker().workGraph(g, sw), 4, 12345)
	for i, s := range sw {
		if r.Assign[s] != want[i] {
			t.Fatalf("switch %d in part %d, the serial loop seeded with 12345 puts it in %d", s, r.Assign[s], want[i])
		}
	}
}

// TestStreamReplaysSeededSource pins the recorded restart streams to
// math/rand: for every restart seed, and for a seed with no
// recording, the replayed Int63 values equal rand.NewSource(seed)'s for
// twice the recorded length, so the fallback past the recording's end
// is covered too.
func TestStreamReplaysSeededSource(t *testing.T) {
	seeds := []int64{99}
	for r := 0; r < restarts; r++ {
		seeds = append(seeds, restartSeed(r))
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
		g *topology.Graph
		k int
	}
	jobs := []job{
		{topology.FatTree(4), 3},
		{topology.Torus2D(6, 6, 1), 4},
		{topology.Dragonfly(4, 9, 2, 1), 2},
		{wan190(), 3},
	}
	got := make([][]*Result, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				r, err := Cut(j.g, j.k, Options{})
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
		want, err := Cut(j.g, j.k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if i < len(got[w]) && !reflect.DeepEqual(got[w][i], want) {
				t.Fatalf("goroutine %d: Cut(%s, %d) differs from the serial Result", w, j.g.Name, j.k)
			}
		}
	}
}

// TestCutWorkersMatchSerial runs Cut over referenceGraphs and k = 2…8
// at GOMAXPROCS 1, 2 and 8 — the inline single-worker
// path, two workers, and one worker per restart — and requires the
// three Results to be identical. Run it under -race.
func TestCutWorkersMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range referenceGraphs() {
		for k := 2; k <= 8 && k <= g.NumSwitches(); k++ {
			var want *Result
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got, err := Cut(g, k, Options{})
				if err != nil {
					t.Fatalf("%s k=%d: %v", g.Name, k, err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: GOMAXPROCS=%d gives a different Result than GOMAXPROCS=1", g.Name, k, procs)
				}
			}
		}
	}
}

// multistart runs worker.multistart on an idle worker, as Cut does,
// and returns a copy of the winning candidate, which lives in the
// worker's storage.
func multistart(wg *workGraph, k int) []int {
	w := getWorker()
	defer putWorker(w)
	return slices.Clone(w.multistart(wg, k))
}

// serialMultistart is multistart as one loop: the restarts in order on
// fresh scratch and the allocating multilevelReference, keeping the
// first of the lowest scores. The restart seeds are seed + 7919·r.
func serialMultistart(wg *workGraph, k int, seed int64) []int {
	var part []int
	bestScore := -1.0
	for r := 0; r < restarts; r++ {
		var rf refiner
		rf.reset(len(wg.vwgt), k)
		var src stream
		src.Seed(seed + int64(r)*7919)
		cand := multilevelReference(wg, k, rand.New(&src), &rf)
		if s := score(wg, cand, k, make([]int, k)); bestScore < 0 || s < bestScore {
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
		wg := newTestWorker().workGraph(g, g.Switches())
		for k := 2; k <= 8 && k <= len(wg.vwgt); k++ {
			got, want := multistart(wg, k), serialMultistart(wg, k, cutSeed)
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: multistart picked %v, the serial loop %v", g.Name, k, got, want)
			}
		}
	}
}
