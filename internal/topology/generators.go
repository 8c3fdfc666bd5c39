package topology

import (
	"fmt"
	"strings"
)

// Generator is one row of the generator table: what a topology
// configuration file, topogen and the routing layer know of one
// standard topology.
type Generator struct {
	Name    string   // the config's "generator" value and the graph's Family
	Params  []string // parameter names, in order
	Doc     string   // one-line description
	Example []int    // a small parameter list the generator accepts
	check   func(p []int) error
	build   func(p []int) *Graph
}

// Generators is the generator table, in topogen -list order. A row's
// check is its generator function's precondition (check.go).
var Generators = []Generator{
	{"fattree", []string{"k"}, "k-ary fat-tree (k even)", []int{4},
		func(p []int) error { return checkFatTree(p[0]) },
		func(p []int) *Graph { return FatTree(p[0]) }},
	{"dragonfly", []string{"a", "g", "h", "p"}, "Dragonfly: a routers/group, g groups, h global links/router, p hosts/router", []int{4, 9, 2, 1},
		func(p []int) error { return checkDragonfly(p[0], p[1], p[2], p[3]) },
		func(p []int) *Graph { return Dragonfly(p[0], p[1], p[2], p[3]) }},
	{"mesh2d", []string{"w", "h", "hosts"}, "2D mesh", []int{4, 4, 1},
		func(p []int) error { return checkGrid2D("mesh2d", false, p[0], p[1], p[2]) },
		func(p []int) *Graph { return Mesh2D(p[0], p[1], p[2]) }},
	{"mesh3d", []string{"x", "y", "z", "hosts"}, "3D mesh", []int{3, 3, 3, 1},
		func(p []int) error { return checkGrid3D("mesh3d", false, p[0], p[1], p[2], p[3]) },
		func(p []int) *Graph { return Mesh3D(p[0], p[1], p[2], p[3]) }},
	{"torus2d", []string{"w", "h", "hosts"}, "2D torus", []int{4, 4, 1},
		func(p []int) error { return checkGrid2D("torus2d", true, p[0], p[1], p[2]) },
		func(p []int) *Graph { return Torus2D(p[0], p[1], p[2]) }},
	{"torus3d", []string{"x", "y", "z", "hosts"}, "3D torus", []int{3, 3, 3, 1},
		func(p []int) error { return checkGrid3D("torus3d", true, p[0], p[1], p[2], p[3]) },
		func(p []int) *Graph { return Torus3D(p[0], p[1], p[2], p[3]) }},
	{"bcube", []string{"n", "k"}, "BCube(n,k) with host switches", []int{4, 1},
		func(p []int) error { return checkBCube(p[0], p[1]) },
		func(p []int) *Graph { return BCube(p[0], p[1]) }},
	{"hyperbcube", []string{"n", "l"}, "Hyper-BCube-style 2D server-centric", []int{2, 2},
		func(p []int) error { return checkHyperBCube(p[0], p[1]) },
		func(p []int) *Graph { return HyperBCube(p[0], p[1]) }},
	{"line", []string{"n", "hosts"}, "chain of n switches", []int{8, 1},
		func(p []int) error { return checkLine(p[0], p[1]) },
		func(p []int) *Graph { return Line(p[0], p[1]) }},
	{"ring", []string{"n", "hosts"}, "cycle of n switches", []int{6, 1},
		func(p []int) error { return checkRing(p[0], p[1]) },
		func(p []int) *Graph { return Ring(p[0], p[1]) }},
	{"star", []string{"n", "hosts"}, "hub + n leaves", []int{5, 1},
		func(p []int) error { return checkStar(p[0], p[1]) },
		func(p []int) *Graph { return Star(p[0], p[1]) }},
	{"fullmesh", []string{"n", "hosts"}, "complete graph", []int{5, 1},
		func(p []int) error { return checkFullMesh(p[0], p[1]) },
		func(p []int) *Graph { return FullMesh(p[0], p[1]) }},
}

// Check reports whether p is a parameter list the generator accepts:
// one value per parameter, inside the generator's domain, for a graph
// of at most maxGeneratedSize vertices and edges.
func (gen *Generator) Check(p []int) error {
	if len(p) != len(gen.Params) {
		return fmt.Errorf("generator %q needs %d params (%s), got %d",
			gen.Name, len(gen.Params), strings.Join(gen.Params, ","), len(p))
	}
	return gen.check(p)
}

// generatorNamed returns the row named name, ignoring case, or nil.
func generatorNamed(name string) *Generator {
	for i := range Generators {
		if strings.EqualFold(Generators[i].Name, name) {
			return &Generators[i]
		}
	}
	return nil
}

// familyOf returns the family an explicit configuration's name
// declares: the row whose name prefixes it, or "". A generated graph's
// default name starts with its family, so a file written from one
// reads back as the same family.
func familyOf(name string) string {
	for i := range Generators {
		if strings.HasPrefix(name, Generators[i].Name) {
			return Generators[i].Name
		}
	}
	return ""
}

// FatTree builds a standard k-ary fat-tree (Al-Fares et al., SIGCOMM'08):
// k pods, each with k/2 edge and k/2 aggregation switches, (k/2)^2 core
// switches, and (k/2)^2 * k hosts. k must be even and >= 2.
//
// Coordinates: core switches carry {0, i, j} (core grid position), pod
// switches carry {layer, pod, index} with layer 1 = aggregation and
// layer 2 = edge; hosts carry {3, pod, edge, slot}.
func FatTree(k int) *Graph {
	must(checkFatTree(k))
	g := generated("fattree", "fattree-k%d", k)
	half := k / 2
	// 5k²/4 switches, k³/4 hosts; k³/2 switch links and k³/4 host links.
	hosts := k * half * half
	g.reserve(half*half+k*k, hosts, k*k*half+hosts, 3*(half*half+k*k)+4*hosts,
		half*half*labelLen("core-", half-1, half-1)+
			k*half*(labelLen("agg-", k-1, half-1)+labelLen("edge-", k-1, half-1))+
			hosts*labelLen("h-", k-1, half-1, half-1))

	core := make([]int, half*half) // core[i*half+j]
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			core[i*half+j] = g.add(Switch, []int{0, i, j}, "core-", i, j)
		}
	}
	agg := make([]int, k*half) // agg[p*half+i], and edge alike
	edge := make([]int, k*half)
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			agg[p*half+i] = g.add(Switch, []int{1, p, i}, "agg-", p, i)
			edge[p*half+i] = g.add(Switch, []int{2, p, i}, "edge-", p, i)
		}
	}
	// Aggregation i in each pod connects to core row i.
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				g.Connect(agg[p*half+i], core[i*half+j])
			}
			for e := 0; e < half; e++ {
				g.Connect(agg[p*half+i], edge[p*half+e])
			}
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for s := 0; s < half; s++ {
				h := g.add(Host, []int{3, p, e, s}, "h-", p, e, s)
				g.Connect(edge[p*half+e], h)
			}
		}
	}
	return g.seal()
}

// Dragonfly builds a Dragonfly (Kim et al., ISCA'08) with a routers per
// group, g groups, h global links per router, and p hosts per router.
// Routers within a group form a complete graph; global link l of router
// r in group grp connects toward group (grp + r*h + l + 1) mod g using
// the standard palmtree-style arrangement. g must satisfy g <= a*h + 1;
// when g == a*h+1 the global graph is a complete group graph.
//
// Coordinates: switches carry {group, router}; hosts carry
// {group, router, slot}.
func Dragonfly(a, g, h, p int) *Graph {
	must(checkDragonfly(a, g, h, p))
	gr := generated("dragonfly", "dragonfly-a%d-g%d-h%d", a, g, h)
	hosts := a * g * p
	gr.reserve(a*g, hosts, g*pairs(a)+pairs(g)+hosts, 2*a*g+3*hosts,
		a*g*labelLen("r-", g-1, a-1)+hosts*labelLen("h-", g-1, a-1, p-1))
	routers := make([]int, g*a) // routers[grp*a+r]
	for grp := 0; grp < g; grp++ {
		for r := 0; r < a; r++ {
			routers[grp*a+r] = gr.add(Switch, []int{grp, r}, "r-", grp, r)
		}
	}
	// Intra-group complete graph.
	for grp := 0; grp < g; grp++ {
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				gr.Connect(routers[grp*a+i], routers[grp*a+j])
			}
		}
	}
	// Global links: each unordered pair of groups receives one link.
	// Every group owns a*h global-link slots (h per router); pair
	// (gi, gj) consumes the next free slot on each side, and the slot
	// index determines which router hosts the link (slot/h). With
	// g <= a*h+1 every group has enough slots for its g-1 peers, giving
	// the canonical fully-connected group graph.
	slot := make([]int, g)
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			ri := slot[gi] / h
			rj := slot[gj] / h
			slot[gi]++
			slot[gj]++
			gr.Connect(routers[gi*a+ri], routers[gj*a+rj])
		}
	}
	for grp := 0; grp < g; grp++ {
		for r := 0; r < a; r++ {
			for k := 0; k < p; k++ {
				hn := gr.add(Host, []int{grp, r, k}, "h-", grp, r, k)
				gr.Connect(routers[grp*a+r], hn)
			}
		}
	}
	return gr.seal()
}

// Mesh2D builds a w x h 2D mesh with hostsPer hosts attached to each
// switch. Switch coordinates are {x, y}; hosts carry {x, y, slot}.
func Mesh2D(w, h, hostsPer int) *Graph {
	must(checkGrid2D("mesh2d", false, w, h, hostsPer))
	return grid2D(generated("mesh2d", "mesh2d-%dx%d", w, h), w, h, hostsPer, false)
}

// Torus2D builds a w x h 2D torus (wrap-around mesh), laid out as
// Mesh2D. For w or h equal to 2 the wrap link would duplicate the mesh
// link, so it is skipped, matching common practice.
func Torus2D(w, h, hostsPer int) *Graph {
	must(checkGrid2D("torus2d", true, w, h, hostsPer))
	return grid2D(generated("torus2d", "torus2d-%dx%d", w, h), w, h, hostsPer, true)
}

// Mesh3D builds an x*y*z 3D mesh. Switch coordinates are {i, j, k}.
func Mesh3D(x, y, z, hostsPer int) *Graph {
	must(checkGrid3D("mesh3d", false, x, y, z, hostsPer))
	return grid3D(generated("mesh3d", "mesh3d-%dx%dx%d", x, y, z), x, y, z, hostsPer, false)
}

// Torus3D builds an x*y*z 3D torus (wrap-around in all dimensions, wrap
// skipped on dimensions of size <= 2 as in Torus2D), laid out as Mesh3D.
func Torus3D(x, y, z, hostsPer int) *Graph {
	must(checkGrid3D("torus3d", true, x, y, z, hostsPer))
	return grid3D(generated("torus3d", "torus3d-%dx%dx%d", x, y, z), x, y, z, hostsPer, true)
}

// BCube builds a BCube(n, k) (Guo et al., SIGCOMM'09): a server-centric
// topology with n^(k+1) hosts and (k+1)*n^k switches. Because BCube
// servers relay traffic, this model inserts a degree-(k+1) "host switch"
// in front of each server so the forwarding role of servers is
// preserved on an OpenFlow substrate; the server itself hangs off its
// host switch. Level-l switch coordinates are {l, index}; host switches
// carry {k+1, serverIndex}.
func BCube(n, k int) *Graph {
	must(checkBCube(n, k))
	g := generated("bcube", "bcube-n%d-k%d", n, k)
	nHosts := pow(n, k+1)
	numSw := pow(n, k)
	levelSw := (k + 1) * numSw
	g.reserve(nHosts+levelSw, nHosts, levelSw*n+nHosts, 2*nHosts+2*levelSw+nHosts,
		nHosts*(labelLen("hsw-", nHosts-1)+labelLen("h-", nHosts-1))+levelSw*labelLen("sw-", k, numSw-1))
	hostSw := make([]int, nHosts)
	for i := 0; i < nHosts; i++ {
		hostSw[i] = g.add(Switch, []int{k + 1, i}, "hsw-", i)
	}
	for l := 0; l <= k; l++ {
		for s := 0; s < numSw; s++ {
			sw := g.add(Switch, []int{l, s}, "sw-", l, s)
			// Switch s at level l connects servers whose digit l varies.
			low := s % pow(n, l)
			high := s / pow(n, l)
			for d := 0; d < n; d++ {
				server := high*pow(n, l+1) + d*pow(n, l) + low
				g.Connect(sw, hostSw[server])
			}
		}
	}
	for i := 0; i < nHosts; i++ {
		h := g.add(Host, []int{i}, "h-", i)
		g.Connect(hostSw[i], h)
	}
	return g.seal()
}

// HyperBCube builds a Hyper-BCube-style two-dimensional server-centric
// topology (after Lin et al., ICC'12): n rows by n*l columns of servers,
// each with two NICs. Level-0 switches join n row-adjacent servers into
// cells; level-1 switches join the n rows at each column. To keep every
// switch at radix n while remaining connected for l > 1, the cell
// boundaries in row r are rotated by r columns (a twisted layout — a
// simplified but structurally faithful variant of the published
// wiring). Host switches front each server as in BCube.
func HyperBCube(n, l int) *Graph {
	must(checkHyperBCube(n, l))
	g := generated("hyperbcube", "hyperbcube-n%d-l%d", n, l)
	rows := n
	cols := n * l
	servers := rows * cols
	g.reserve(servers+rows*l+cols, servers, rows*l*n+cols*rows+servers, 4*servers+3*rows*l+2*cols,
		servers*(labelLen("hsw-", rows-1, cols-1)+labelLen("h-", rows-1, cols-1))+
			rows*l*labelLen("sw0-", rows-1, l-1)+cols*labelLen("sw1-", cols-1))
	hostSw := make([]int, servers) // hostSw[r*cols+c]
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			hostSw[r*cols+c] = g.add(Switch, []int{r, c}, "hsw-", r, c)
		}
	}
	// Level-0: row r is split into l cells of n consecutive columns,
	// rotated by r so cells in adjacent rows overlap via the columns.
	for r := 0; r < rows; r++ {
		for cell := 0; cell < l; cell++ {
			sw := g.add(Switch, []int{100, r, cell}, "sw0-", r, cell)
			for i := 0; i < n; i++ {
				g.Connect(sw, hostSw[r*cols+(cell*n+i+r)%cols])
			}
		}
	}
	// Level-1: each column is joined by a switch across rows.
	for c := 0; c < cols; c++ {
		sw := g.add(Switch, []int{101, c}, "sw1-", c)
		for r := 0; r < rows; r++ {
			g.Connect(sw, hostSw[r*cols+c])
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			h := g.add(Host, []int{r, c}, "h-", r, c)
			g.Connect(hostSw[r*cols+c], h)
		}
	}
	return g.seal()
}

// Line builds n switches in a path, hostsPer hosts each. The paper's
// Fig. 10 latency topology is Line(8, 1).
func Line(n, hostsPer int) *Graph {
	must(checkLine(n, hostsPer))
	g := generated("line", "line-%d", n)
	reserveSwitchRow(g, n, along(n, false), hostsPer)
	prev := -1
	for i := 0; i < n; i++ {
		s := g.add(Switch, []int{i}, "s", i)
		if prev >= 0 {
			g.Connect(prev, s)
		}
		for h := 0; h < hostsPer; h++ {
			hv := g.add(Host, []int{i, h}, "h", i, h)
			g.Connect(s, hv)
		}
		prev = s
	}
	return g.seal()
}

// Ring builds n switches in a cycle with hostsPer hosts each.
func Ring(n, hostsPer int) *Graph {
	must(checkRing(n, hostsPer))
	g := generated("ring", "ring-%d", n)
	reserveSwitchRow(g, n, along(n, true), hostsPer)
	sw := rowSwitches(g, n)
	for i := 0; i < n; i++ {
		if linked(i, n, true) {
			g.Connect(sw[i], sw[(i+1)%n])
		}
	}
	attachRowHosts(g, sw, hostsPer)
	return g.seal()
}

// Star builds one hub switch with n leaf switches, hostsPer hosts per leaf.
func Star(n, hostsPer int) *Graph {
	must(checkStar(n, hostsPer))
	g := generated("star", "star-%d", n)
	g.reserve(1+n, n*hostsPer, n+n*hostsPer, 1+n+2*n*hostsPer,
		len("hub")+n*labelLen("leaf", n-1)+n*hostsPer*labelLen("h", n-1, hostsPer-1))
	hub := g.add(Switch, []int{0}, "hub")
	for i := 0; i < n; i++ {
		leaf := g.add(Switch, []int{i + 1}, "leaf", i)
		g.Connect(hub, leaf)
		for h := 0; h < hostsPer; h++ {
			hv := g.add(Host, []int{i, h}, "h", i, h)
			g.Connect(leaf, hv)
		}
	}
	return g.seal()
}

// FullMesh builds n switches, each pair directly linked, hostsPer hosts each.
func FullMesh(n, hostsPer int) *Graph {
	must(checkFullMesh(n, hostsPer))
	g := generated("fullmesh", "fullmesh-%d", n)
	reserveSwitchRow(g, n, pairs(n), hostsPer)
	sw := rowSwitches(g, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.Connect(sw[i], sw[j])
		}
	}
	attachRowHosts(g, sw, hostsPer)
	return g.seal()
}

// reserveSwitchRow reserves a graph of n switches labelled "s<i>" with
// coordinates {i}, switchLinks links among them, and hostsPer hosts on
// each labelled "h<i>-<slot>" with coordinates {i, slot}.
func reserveSwitchRow(g *Graph, n, switchLinks, hostsPer int) {
	hosts := n * hostsPer
	g.reserve(n, hosts, switchLinks+hosts, n+2*hosts,
		n*labelLen("s", n-1)+hosts*labelLen("h", n-1, hostsPer-1))
}

// rowSwitches adds n switches labelled "s<i>" with coordinates {i}.
func rowSwitches(g *Graph, n int) []int {
	sw := make([]int, n)
	for i := range sw {
		sw[i] = g.add(Switch, []int{i}, "s", i)
	}
	return sw
}

// attachRowHosts attaches hostsPer hosts to each switch of sw, switch
// by switch, labelled "h<i>-<slot>" with coordinates {i, slot}.
func attachRowHosts(g *Graph, sw []int, hostsPer int) {
	for i, s := range sw {
		for h := 0; h < hostsPer; h++ {
			hv := g.add(Host, []int{i, h}, "h", i, h)
			g.Connect(s, hv)
		}
	}
}

// grid2D lays a w x h grid of switches out on g, links each switch to
// its successor along x and then along y where linked says so, and
// attaches hostsPer hosts to each switch.
func grid2D(g *Graph, w, h, hostsPer int, wrap bool) *Graph {
	switches, hosts := w*h, w*h*hostsPer
	g.reserve(switches, hosts, along(w, wrap)*h+along(h, wrap)*w+hosts, 2*switches+3*hosts,
		switches*labelLen("s-", w-1, h-1)+hosts*labelLen("h-", w-1, h-1, hostsPer-1))
	grid := make([]int, switches) // grid[x*h+y]
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			grid[x*h+y] = g.add(Switch, []int{x, y}, "s-", x, y)
		}
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if linked(x, w, wrap) {
				g.Connect(grid[x*h+y], grid[(x+1)%w*h+y])
			}
			if linked(y, h, wrap) {
				g.Connect(grid[x*h+y], grid[x*h+(y+1)%h])
			}
		}
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			for k := 0; k < hostsPer; k++ {
				hv := g.add(Host, []int{x, y, k}, "h-", x, y, k)
				g.Connect(grid[x*h+y], hv)
			}
		}
	}
	return g.seal()
}

// grid3D is grid2D in three dimensions.
func grid3D(g *Graph, x, y, z, hostsPer int, wrap bool) *Graph {
	switches, hosts := x*y*z, x*y*z*hostsPer
	g.reserve(switches, hosts, (along(x, wrap)*y*z+along(y, wrap)*x*z+along(z, wrap)*x*y)+hosts, 3*switches+4*hosts,
		switches*labelLen("s-", x-1, y-1, z-1)+hosts*labelLen("h-", x-1, y-1, z-1, hostsPer-1))
	at := func(i, j, k int) int { return (i*y+j)*z + k }
	grid := make([]int, switches) // grid[at(i, j, k)]
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				grid[at(i, j, k)] = g.add(Switch, []int{i, j, k}, "s-", i, j, k)
			}
		}
	}
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if linked(i, x, wrap) {
					g.Connect(grid[at(i, j, k)], grid[at((i+1)%x, j, k)])
				}
				if linked(j, y, wrap) {
					g.Connect(grid[at(i, j, k)], grid[at(i, (j+1)%y, k)])
				}
				if linked(k, z, wrap) {
					g.Connect(grid[at(i, j, k)], grid[at(i, j, (k+1)%z)])
				}
			}
		}
	}
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				for n := 0; n < hostsPer; n++ {
					hv := g.add(Host, []int{i, j, k, n}, "h-", i, j, k, n)
					g.Connect(grid[at(i, j, k)], hv)
				}
			}
		}
	}
	return g.seal()
}

// linked reports whether switch i of a row of n links to switch
// (i+1) mod n: every switch but the last does, and the last does when
// the row wraps and is longer than 2 (on 2 switches the wrap link would
// repeat the row's one link). along counts these links.
func linked(i, n int, wrap bool) bool { return i+1 < n || wrap && n > 2 }

// generated returns an empty graph of a generator family, named by
// format and args.
func generated(family, format string, args ...any) *Graph {
	g := New(fmt.Sprintf(format, args...))
	g.Family = family
	return g
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}
