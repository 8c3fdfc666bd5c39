package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// The generator preconditions. Each generator has one check function,
// which its row of the generator table runs on a configuration file's
// parameters and the generator function itself runs (panicking on its
// error) when called directly, so every precondition is written once.
// A check covers the parameter domain and then the size bound; the
// size is computed from the parameters before anything is allocated,
// with products that saturate instead of overflowing. Nothing is
// allocated unless a check fails.

// maxGeneratedSize bounds the vertices plus edges of a generated
// topology, so that no configuration file can ask a binary for more
// memory than a controller host has: building and validating a graph
// at the bound allocates about 230 MB. It admits FatTree(64), the
// largest fabric the benchmarks build (70 656 vertices and 196 608
// edges), and FatTree(66), but not FatTree(68).
const maxGeneratedSize = 300_000

// needSwitches is the domain of the n-switch generators.
const needSwitches = "need n >= 1 and hosts >= 0"

func checkFatTree(k int) error {
	if k < 2 || k%2 != 0 {
		return shapeError("fattree", "k must be even and >= 2", k)
	}
	// 5k²/4 switches, k³/4 hosts and 3k³/4 links.
	half := k / 2
	return fits("fattree", sum(mul(5, half, half), mul(4, k, half, half)), k)
}

func checkDragonfly(a, g, h, p int) error {
	if a < 1 || g < 2 || h < 1 || p < 0 {
		return shapeError("dragonfly", "need a >= 1, g >= 2, h >= 1 and p >= 0", a, g, h, p)
	}
	// g-1 > a*h, without forming a product that may overflow.
	if (g-2)/a >= h {
		return shapeError("dragonfly", fmt.Sprintf("g exceeds a*h+1 = %d", a*h+1), a, g, h, p)
	}
	// a·g routers with p hosts each, a complete graph in each group and
	// one global link per pair of groups.
	routers := mul(a, g)
	hosts := mul(routers, p)
	return fits("dragonfly", sum(routers, mul(2, hosts), mul(g, pairs(a)), pairs(g)), a, g, h, p)
}

func checkGrid2D(name string, torus bool, w, h, hostsPer int) error {
	if w < 1 || h < 1 || hostsPer < 0 {
		return shapeError(name, "need w >= 1, h >= 1 and hosts >= 0", w, h, hostsPer)
	}
	return fits(name, gridSize(torus, hostsPer, w, h), w, h, hostsPer)
}

func checkGrid3D(name string, torus bool, x, y, z, hostsPer int) error {
	if x < 1 || y < 1 || z < 1 || hostsPer < 0 {
		return shapeError(name, "need x >= 1, y >= 1, z >= 1 and hosts >= 0", x, y, z, hostsPer)
	}
	return fits(name, gridSize(torus, hostsPer, x, y, z), x, y, z, hostsPer)
}

func checkBCube(n, k int) error {
	if n < 2 || k < 0 {
		return shapeError("bcube", "need n >= 2 and k >= 0", n, k)
	}
	// n^(k+1) servers, each a host switch and a host on one link, and
	// k+1 levels of n^k switches with n links each.
	nk := 1
	for i := 0; i < k && nk <= maxGeneratedSize; i++ {
		nk = mul(nk, n)
	}
	servers := mul(n, nk)
	return fits("bcube", sum(mul(sum(k, 1), sum(nk, servers)), mul(3, servers)), n, k)
}

func checkHyperBCube(n, l int) error {
	if n < 2 || l < 1 {
		return shapeError("hyperbcube", "need n >= 2 and l >= 1", n, l)
	}
	// n rows of n·l servers (a host switch, a host and three links
	// each), n·l level-0 and n·l level-1 switches.
	cols := mul(n, l)
	return fits("hyperbcube", sum(mul(5, n, cols), mul(2, cols)), n, l)
}

func checkLine(n, hostsPer int) error {
	if n < 1 || hostsPer < 0 {
		return shapeError("line", needSwitches, n, hostsPer)
	}
	return fits("line", sum(n, along(n, false), mul(2, n, hostsPer)), n, hostsPer)
}

func checkRing(n, hostsPer int) error {
	if n < 1 || hostsPer < 0 {
		return shapeError("ring", needSwitches, n, hostsPer)
	}
	return fits("ring", sum(n, along(n, true), mul(2, n, hostsPer)), n, hostsPer)
}

func checkStar(n, hostsPer int) error {
	if n < 1 || hostsPer < 0 {
		return shapeError("star", needSwitches, n, hostsPer)
	}
	// The hub, n leaves and n hub links.
	return fits("star", sum(1, mul(2, n), mul(2, n, hostsPer)), n, hostsPer)
}

func checkFullMesh(n, hostsPer int) error {
	if n < 1 || hostsPer < 0 {
		return shapeError("fullmesh", needSwitches, n, hostsPer)
	}
	return fits("fullmesh", sum(n, pairs(n), mul(2, n, hostsPer)), n, hostsPer)
}

// must panics with a generator function's check error.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("topology: %w", err))
	}
}

// shapeError reports parameters p that break a generator's rule.
func shapeError(name, rule string, p ...int) error {
	var b strings.Builder
	for i, x := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return fmt.Errorf("%s(%s): %s", name, b.String(), rule)
}

// fits reports a generated graph of size vertices plus edges that
// exceeds maxGeneratedSize.
func fits(name string, size int, p ...int) error {
	if size <= maxGeneratedSize {
		return nil
	}
	return shapeError(name, fmt.Sprintf("more than %d vertices and edges", maxGeneratedSize), p...)
}

// gridSize is the vertices plus edges of a mesh or torus with the given
// sides and hostsPer hosts on each switch.
func gridSize(torus bool, hostsPer int, sides ...int) int {
	switches := mul(sides...)
	size := sum(switches, mul(2, switches, hostsPer))
	for i, s := range sides {
		links := along(s, torus)
		for j, t := range sides {
			if j != i {
				links = mul(links, t)
			}
		}
		size = sum(size, links)
	}
	return size
}

// along is the number of links joining n >= 1 switches in a line, or in
// a ring when wrap is set: the wrap link is skipped for n <= 2, where it
// would repeat a line link or join a switch to itself.
func along(n int, wrap bool) int {
	if wrap && n > 2 {
		return n
	}
	return n - 1
}

// pairs is n(n-1)/2 for n >= 1, saturated as mul saturates.
func pairs(n int) int {
	if n%2 == 0 {
		return mul(n/2, n-1)
	}
	return mul(n, (n-1)/2)
}

// mul returns the product of non-negative factors, saturated at
// maxGeneratedSize+1 so that no size computation overflows, whatever
// the parameters.
func mul(xs ...int) int {
	const limit = maxGeneratedSize + 1
	r := 1
	for _, x := range xs {
		if x > 0 && r > limit/x {
			r = limit
		} else {
			r *= x
		}
	}
	return r
}

// sum returns the sum of non-negative terms, saturated as mul saturates.
func sum(xs ...int) int {
	const limit = maxGeneratedSize + 1
	r := 0
	for _, x := range xs {
		r += min(x, limit)
		r = min(r, limit)
	}
	return r
}
