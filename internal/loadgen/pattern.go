package loadgen

import "fmt"

// PairFn returns the (src, dst) ranks of the i-th flow. Implementations
// draw from the RNG they were instantiated with, so the pair sequence
// is part of the seeded schedule.
type PairFn func(i int) (src, dst int)

// Pattern chooses communicating pairs for an open-loop schedule.
// Instantiate binds the pattern to a rank count and an RNG (fixing any
// per-schedule structure: the permutation's bijection, incast's victim
// and sender set, hotspot's hot set) and returns the per-flow pair
// function.
type Pattern interface {
	Name() string
	// Instantiate fixes the pattern's structure for n ranks.
	Instantiate(r *RNG, n int) PairFn
	// Bottlenecks reports how many host links the pattern loads in
	// aggregate — the unit count the load factor multiplies. Spreading
	// patterns (uniform, permutation, hotspot) inject on all n host
	// links; incast is limited by a single link, the victim's.
	Bottlenecks(n int) int
}

// uniformPat picks independent uniform (src, dst) pairs, src != dst.
type uniformPat struct{}

// Uniform is all-to-all random traffic: every flow an independent
// uniform (src, dst) pair.
func Uniform() Pattern { return uniformPat{} }

func (uniformPat) Name() string          { return "uniform" }
func (uniformPat) Bottlenecks(n int) int { return n }
func (uniformPat) Instantiate(r *RNG, n int) PairFn {
	return func(int) (int, int) {
		src := r.Intn(n)
		dst := r.Intn(n - 1)
		if dst >= src {
			dst++
		}
		return src, dst
	}
}

// permutationPat fixes a seeded fixed-point-free bijection; each flow
// picks a uniform source and sends to its image.
type permutationPat struct{}

// Permutation fixes a random bijection p (with no fixed points) over
// the ranks; every flow from src goes to p[src]. Each host link then
// carries exactly one destination's traffic — the classic worst-case
// pattern for oblivious routing.
func Permutation() Pattern { return permutationPat{} }

func (permutationPat) Name() string          { return "permutation" }
func (permutationPat) Bottlenecks(n int) int { return n }
func (permutationPat) Instantiate(r *RNG, n int) PairFn {
	if n < 2 {
		panic("loadgen: permutation needs >= 2 ranks")
	}
	// A uniform cyclic shift of a random permutation: p[π(i)] = π(i+1).
	// Bijective by construction and fixed-point-free for n >= 2.
	pi := r.Perm(n)
	p := make([]int, n)
	for i := 0; i < n; i++ {
		p[pi[i]] = pi[(i+1)%n]
	}
	return func(int) (int, int) {
		src := r.Intn(n)
		return src, p[src]
	}
}

// incastPat funnels Fanin senders into one victim.
type incastPat struct{ fanin int }

// Incast is the N:1 pattern: a fixed victim receives from a fixed set
// of `fanin` distinct senders (0 or >= n means all other ranks). The
// load factor is measured at the victim's link — the bottleneck.
func Incast(fanin int) Pattern { return incastPat{fanin: fanin} }

func (p incastPat) Name() string {
	if p.fanin <= 0 {
		return "incast"
	}
	return fmt.Sprintf("incast-%d", p.fanin)
}
func (incastPat) Bottlenecks(int) int { return 1 }
func (p incastPat) Instantiate(r *RNG, n int) PairFn {
	if n < 2 {
		panic("loadgen: incast needs >= 2 ranks")
	}
	victim := r.Intn(n)
	fanin := p.fanin
	if fanin <= 0 || fanin > n-1 {
		fanin = n - 1
	}
	// Senders: the first `fanin` non-victim ranks of a seeded shuffle.
	var senders []int
	for _, v := range r.Perm(n) {
		if v != victim && len(senders) < fanin {
			senders = append(senders, v)
		}
	}
	return func(int) (int, int) {
		return senders[r.Intn(len(senders))], victim
	}
}

// hotspotPat skews a uniform mix toward a small hot destination set.
type hotspotPat struct {
	hotRanks int
	hotFrac  float64
}

// Hotspot sends `hotFrac` of the flows to a fixed set of `hotRanks`
// hot destinations and the rest uniformly — the skewed mix that
// stresses adaptive routing. hotRanks <= 0 defaults to max(1, n/8);
// hotFrac <= 0 defaults to 0.7.
func Hotspot(hotRanks int, hotFrac float64) Pattern {
	return hotspotPat{hotRanks: hotRanks, hotFrac: hotFrac}
}

func (p hotspotPat) Name() string {
	if p.hotRanks <= 0 && p.hotFrac <= 0 {
		return "hotspot"
	}
	return fmt.Sprintf("hotspot-k%d-f%g", p.hotRanks, p.hotFrac)
}
func (hotspotPat) Bottlenecks(n int) int { return n }
func (p hotspotPat) Instantiate(r *RNG, n int) PairFn {
	if n < 2 {
		panic("loadgen: hotspot needs >= 2 ranks")
	}
	k := p.hotRanks
	if k <= 0 {
		k = n / 8
		if k < 1 {
			k = 1
		}
	}
	if k > n {
		k = n
	}
	frac := p.hotFrac
	if frac <= 0 || frac > 1 {
		frac = 0.7
	}
	hot := r.Perm(n)[:k]
	return func(int) (int, int) {
		src := r.Intn(n)
		for {
			var dst int
			if r.Float64() < frac {
				dst = hot[r.Intn(k)]
			} else {
				dst = r.Intn(n)
			}
			if dst != src {
				return src, dst
			}
		}
	}
}
