package loadgen

// FuzzPattern: the traffic-pattern invariants the FlowApp relies on —
// every generated pair stays inside [0, ranks) with src != dst, a
// permutation's mapping is a fixed-point-free bijection, and incast
// concentrates on one victim with exactly min(fanin, ranks-1) distinct
// senders — must hold for EVERY (seed, ranks, fanin), not just the
// hand-picked values of the unit tests. CI runs this as a smoke
// (`go test -fuzz=FuzzPattern -fuzztime=10s`).

import "testing"

func FuzzPattern(f *testing.F) {
	f.Add(int64(1), 16, 8)
	f.Add(int64(0), 2, 1)
	f.Add(int64(-7), 3, 99)
	f.Add(int64(12345), 128, 15)
	f.Fuzz(func(t *testing.T, seed int64, ranks, fanin int) {
		// Clamp to the documented domains; the clamping itself must not
		// panic for any input.
		if ranks < 2 {
			ranks = 2
		}
		if ranks > 256 {
			ranks = 2 + ranks%255
		}
		if fanin < 1 {
			fanin = 1
		}
		const draws = 512

		check := func(name string, pair PairFn) (pairs [][2]int) {
			for i := 0; i < draws; i++ {
				src, dst := pair(i)
				if src < 0 || src >= ranks || dst < 0 || dst >= ranks {
					t.Fatalf("%s(ranks=%d): pair (%d,%d) out of range", name, ranks, src, dst)
				}
				if src == dst {
					t.Fatalf("%s(ranks=%d): self-pair %d", name, ranks, src)
				}
				pairs = append(pairs, [2]int{src, dst})
			}
			return pairs
		}

		check("uniform", Uniform().Instantiate(NewRNG(seed), ranks))

		// Permutation: functional (one image per source), injective over
		// the observed sources, and fixed-point-free.
		perm := check("permutation", Permutation().Instantiate(NewRNG(seed), ranks))
		img := map[int]int{}
		pre := map[int]int{}
		for _, p := range perm {
			src, dst := p[0], p[1]
			if prev, ok := img[src]; ok && prev != dst {
				t.Fatalf("permutation: src %d maps to both %d and %d", src, prev, dst)
			}
			img[src] = dst
			if prev, ok := pre[dst]; ok && prev != src {
				t.Fatalf("permutation: dst %d has preimages %d and %d", dst, prev, src)
			}
			pre[dst] = src
		}

		// Incast: one victim, exact fan-in.
		inc := check("incast", Incast(fanin).Instantiate(NewRNG(seed), ranks))
		victim := inc[0][1]
		senders := map[int]bool{}
		for _, p := range inc {
			if p[1] != victim {
				t.Fatalf("incast: second victim %d (first %d)", p[1], victim)
			}
			senders[p[0]] = true
		}
		wantSenders := fanin
		if wantSenders > ranks-1 {
			wantSenders = ranks - 1
		}
		// All draws land on the sender set; with draws >> senders every
		// sender appears (each is drawn uniformly, 512 draws over <= 256
		// senders makes a miss astronomically unlikely — and any miss
		// would be deterministic for the failing seed).
		if len(senders) > wantSenders {
			t.Fatalf("incast: %d distinct senders, want <= %d", len(senders), wantSenders)
		}
		if senders[victim] {
			t.Fatal("incast: the victim sends to itself")
		}

		// A generated schedule over these patterns must satisfy the
		// FlowApp's constructor invariants (unique (src,dst,tag), ranks
		// in range) — Generate panicking or emitting an invalid flow
		// would crash every scenario using the pattern.
		fs, err := Spec{
			Ranks: ranks, Pattern: Incast(fanin), Sizes: FixedSize(1024),
			Load: 0.5, Flows: 32, Seed: seed,
		}.Generate()
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		for i := range fs.Flows {
			fl := &fs.Flows[i]
			if fl.Src < 0 || fl.Src >= ranks || fl.Dst < 0 || fl.Dst >= ranks || fl.Src == fl.Dst {
				t.Fatalf("flow %d: bad endpoints %+v", i, fl)
			}
			if fl.Bytes <= 0 || fl.Start < 0 {
				t.Fatalf("flow %d: bad size/start %+v", i, fl)
			}
			if i > 0 && fl.Start < fs.Flows[i-1].Start {
				t.Fatalf("flow %d: schedule not time-sorted", i)
			}
		}
	})
}
