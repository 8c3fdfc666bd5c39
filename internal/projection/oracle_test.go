package projection

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/topology"
)

// minSwitchesReference is minSwitches without the pigeonhole bound:
// every k pays its Cut. It is the oracle for Projectable's answers.
func minSwitchesReference(g *topology.Graph, spec PhysicalSwitch, maxSwitches int) (int, bool) {
	for k := 1; k <= maxSwitches && k <= g.NumSwitches(); k++ {
		specs := make([]PhysicalSwitch, k)
		for i := range specs {
			specs[i] = spec
		}
		parts, err := partition.Cut(g, k, partition.Options{})
		if err != nil {
			return 0, false
		}
		if fitParts(demandsFor(g, parts), specs) == nil {
			return k, true
		}
	}
	return 0, false
}

// dualHomed builds a graph Validate would reject but Projectable (which
// does not validate) accepts: two linked switches and nHosts hosts with
// a link to each. demandsFor books one port per attached host where
// Graph.HostFacingPorts counts two, so a bound computed from the latter
// would skip a k that fits.
func dualHomed(nHosts int) *topology.Graph {
	g := topology.New("dual-homed")
	a, b := g.AddSwitch("a"), g.AddSwitch("b")
	g.Connect(a, b)
	for i := 0; i < nHosts; i++ {
		h := g.AddHost(fmt.Sprintf("h%d", i))
		g.Connect(a, h)
		g.Connect(b, h)
	}
	return g
}

func oracleGraphs() []*topology.Graph {
	gs := append(topology.Zoo(41), topology.BCube(4, 1), topology.BCube(8, 1),
		topology.FatTree(8), topology.Torus3D(4, 4, 4, 1), dualHomed(40))
	if testing.Short() {
		gs = gs[len(gs)-60:]
	}
	return gs
}

// TestPortShortfallNeverChangesAnAnswer holds the bound to its
// contract on every k of every search shape: whenever it says skip,
// the path it skips — Cut, demandsFor, fitParts, exactly as mapDemands
// and minSwitches run them — fails too; and the port total it rests on
// is the same for every partition.
func TestPortShortfallNeverChangesAnAnswer(t *testing.T) {
	uniform := []PhysicalSwitch{H3CS6861("u0"), H3CS6861("u1"), H3CS6861("u2")}
	mixed := []PhysicalSwitch{
		{ID: "m0", Ports: 24}, {ID: "m1", Ports: 88}, {ID: "m2", Ports: 48}, {ID: "m3", Ports: 64},
	}
	skipped, paid := 0, 0
	for _, g := range oracleGraphs() {
		need := -1
		for _, switches := range [][]PhysicalSwitch{uniform, mixed} {
			for k := 1; k <= maxK(g, switches); k++ {
				parts, err := partition.Cut(g, k, partition.Options{})
				if err != nil {
					t.Fatal(err)
				}
				d := demandsFor(g, parts)
				sum := 0
				for _, p := range d.PartPorts {
					sum += p
				}
				if need < 0 {
					need = sum
				} else if sum != need {
					t.Fatalf("%s k=%d: Σ PartPorts = %d, was %d for another partition", g.Name, k, sum, need)
				}
				// The k-of-the-full-list shape (PlanCabling, ProjectInto)
				// and the k-identical-switches shape (minSwitches).
				for _, sw := range [][]PhysicalSwitch{switches, uniform[:min(k, len(uniform))]} {
					if len(sw) < k {
						continue
					}
					bound := portShortfall(g, sw, k)
					if bound == nil {
						paid++
						continue
					}
					skipped++
					if fitParts(d, sw) == nil {
						t.Fatalf("%s k=%d on %d switches: bound says %q but the partition fits", g.Name, k, len(sw), bound)
					}
					if _, err := mapDemands(g, sw, k, partition.Options{}); err == nil {
						t.Fatalf("%s k=%d on %d switches: bound says %q but mapDemands succeeds", g.Name, k, len(sw), bound)
					}
				}
			}
		}
	}
	if skipped == 0 || paid == 0 {
		t.Fatalf("vacuous: %d k skipped, %d paid", skipped, paid)
	}
	t.Logf("%d k skipped by the bound, %d paid a Cut", skipped, paid)
}

// TestProjectableMatchesUnboundedSearch compares the public answers —
// fit or not, and at which k — with the oracle's, for the zoo at the
// paper's three-switch budget and for specs small enough that k = 1
// and 2 are skipped for most graphs.
func TestProjectableMatchesUnboundedSearch(t *testing.T) {
	for _, spec := range []PhysicalSwitch{H3CS6861("s"), Commodity64("c"), {ID: "tiny", Ports: 16}} {
		for _, g := range oracleGraphs() {
			for _, maxSw := range []int{1, 3} {
				wantK, wantOK := minSwitchesReference(g, spec, maxSw)
				gotK, err := minSwitches(g, spec, maxSw)
				if (err == nil) != wantOK || gotK != wantK {
					t.Fatalf("%s on ≤%d × %d ports: minSwitches = %d, %v; oracle %d, %v",
						g.Name, maxSw, spec.Ports, gotK, err, wantK, wantOK)
				}
				if got := Projectable(g, spec, MethodSDT, maxSw); got != wantOK {
					t.Fatalf("%s on ≤%d × %d ports: Projectable = %v, oracle %v", g.Name, maxSw, spec.Ports, got, wantOK)
				}
			}
		}
	}
}

// TestPortShortfallCountsHostsLikeDemandsFor pins the multi-homed-host
// caveat: 40 dual-homed hosts need 2 + 40 ports on one switch by
// demandsFor's count, 2 + 80 by HostFacingPorts'. A 42-port switch
// fits and the bound must not skip it.
func TestPortShortfallCountsHostsLikeDemandsFor(t *testing.T) {
	g := dualHomed(40)
	spec := PhysicalSwitch{ID: "p42", Ports: 42}
	if got := g.HostFacingPorts(); got != 80 {
		t.Fatalf("HostFacingPorts = %d, want 80 (the test's premise)", got)
	}
	if err := portShortfall(g, []PhysicalSwitch{spec}, 1); err != nil {
		t.Fatalf("bound skips k=1: %v", err)
	}
	if !Projectable(g, spec, MethodSDT, 1) {
		t.Fatal("42-port switch should host 2 switches + 40 attached hosts")
	}
	spec.Ports = 41
	if err := portShortfall(g, []PhysicalSwitch{spec}, 1); err == nil {
		t.Fatal("bound admits k=1 on 41 ports for a 42-port demand")
	}
}

// TestSearchesReportTheShortfall checks the error a user sees when
// every k was skipped names the port arithmetic.
func TestSearchesReportTheShortfall(t *testing.T) {
	g := topology.FatTree(8) // 256 switch-switch links + 128 hosts = 640 ports
	const want = "needs 640 ports, 3 switch(es) have 264"
	if _, err := Requirements(g, H3CS6861("s"), MethodSDT, 3); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Requirements: %v, want it to say %q", err, want)
	}
	if _, err := PlanCabling(threeSwitches(), []*topology.Graph{g}, partition.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("PlanCabling: %v, want it to say %q", err, want)
	}
	cab, err := PlanCabling(threeSwitches(), []*topology.Graph{topology.FatTree(4)}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Project(g, cab, partition.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Project: %v, want it to say %q", err, want)
	}
}

// BenchmarkProjectableZoo is Table II's inner loop and the first third
// of the ctl-reconfig benchmark cell: will-it-fit on three S6861s for
// each of the 261 zoo graphs.
func BenchmarkProjectableZoo(b *testing.B) {
	zoo := topology.Zoo(41)
	spec := H3CS6861("s")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit := 0
		for _, g := range zoo {
			if Projectable(g, spec, MethodSDT, 3) {
				fit++
			}
		}
		if fit == 0 {
			b.Fatal("no zoo graph fits")
		}
	}
}
