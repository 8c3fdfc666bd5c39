package topology

import (
	"fmt"
	"math/rand"
)

// ZooSize is the number of WAN topologies in the synthetic Internet
// Topology Zoo used for Table II. The real zoo snapshot the paper cites
// contains 261 usable graphs; our generator reproduces its size
// distribution (see Zoo).
const ZooSize = 261

// Zoo generates a deterministic synthetic stand-in for the Internet
// Topology Zoo. The real dataset is a collection of operator WAN maps
// with 4–196 nodes and a long-tailed size distribution (median ≈ 21
// nodes, mean degree ≈ 2.3). Each synthetic graph is a random connected
// sparse graph drawn from that distribution: a spanning tree plus a
// binomial number of extra links, which matches the structural
// properties Table II depends on (per-switch port counts and total link
// counts). The generator is seeded, so the 261 graphs are stable across
// runs.
func Zoo(seed int64) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Graph, 0, ZooSize)
	for i := 0; i < ZooSize; i++ {
		n := zooNodeCount(rng)
		// float64(x*y) keeps the product out of a fused multiply-add.
		extra := int(float64(n) * (0.15 + float64(0.35*rng.Float64())))
		out = append(out, RandomWAN(fmt.Sprintf("zoo-%03d", i), n, extra, rng.Int63()))
	}
	return out
}

// zooNodeCount draws a node count from a long-tailed distribution
// approximating the zoo: most maps have 5–40 nodes, a few reach ~196.
func zooNodeCount(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.25:
		return 4 + rng.Intn(12) // 4..15
	case u < 0.70:
		return 16 + rng.Intn(25) // 16..40
	case u < 0.93:
		return 41 + rng.Intn(60) // 41..100
	default:
		return 101 + rng.Intn(96) // 101..196
	}
}

// RandomWAN builds a random connected WAN-like topology with n switches:
// a random spanning tree plus `extra` additional random links (parallel
// links and self loops suppressed). One host is attached to every
// switch, modelling a PoP's client side. The same (n, extra, seed)
// always yields the same graph.
func RandomWAN(name string, n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(name)
	g.reserve(n, n, max(0, 2*n-1+min(extra, pairs(n)-n+1)), 2*n, n*(labelLen("s", n-1)+labelLen("h", n-1)))
	// Switch i is vertex i.
	for i := 0; i < n; i++ {
		g.add(Switch, []int{i}, "s", i)
	}
	// The switch pairs already linked, bit min*n+max of the pair. The
	// graph's own EdgeBetween would rebuild its incidence index for
	// every candidate, as each Connect drops it.
	linked := make([]uint64, (n*n+63)/64)
	bit := func(a, b int) (int, uint64) {
		k := min(a, b)*n + max(a, b)
		return k / 64, 1 << (k % 64)
	}
	connect := func(a, b int) {
		w, m := bit(a, b)
		linked[w] |= m
		g.Connect(a, b)
	}
	// Random spanning tree: attach vertex i to a uniformly random
	// earlier vertex (random recursive tree).
	for i := 1; i < n; i++ {
		connect(i, rng.Intn(i))
	}
	// Extra links between distinct, not-yet-adjacent switch pairs.
	for added, tries := 0, 0; added < extra && tries < extra*20+100; tries++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if w, m := bit(a, b); a == b || linked[w]&m != 0 {
			continue
		}
		connect(a, b)
		added++
	}
	for i := 0; i < n; i++ {
		h := g.add(Host, []int{i}, "h", i)
		g.Connect(i, h)
	}
	return g.seal()
}
