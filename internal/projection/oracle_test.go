package projection

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		if d := demandsFor(g, parts); fitParts(d, specs, switchOrder(specs), partOrder(d)) == nil {
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
					swOrder := switchOrder(sw)
					bound := portShortfall(portsNeeded(g), sw, swOrder, k)
					if !bound.short() {
						paid++
						continue
					}
					skipped++
					if fitParts(d, sw, swOrder, partOrder(d)) == nil {
						t.Fatalf("%s k=%d on %d switches: bound says %q but the partition fits", g.Name, k, len(sw), bound)
					}
					if _, err := mapDemands(g, sw, swOrder, k); err == nil {
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
	if s := portShortfall(portsNeeded(g), []PhysicalSwitch{spec}, []int{0}, 1); s.short() {
		t.Fatalf("bound skips k=1: %v", s)
	}
	if !Projectable(g, spec, MethodSDT, 1) {
		t.Fatal("42-port switch should host 2 switches + 40 attached hosts")
	}
	spec.Ports = 41
	if !portShortfall(portsNeeded(g), []PhysicalSwitch{spec}, []int{0}, 1).short() {
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

// selfOnReference, interBetweenReference and hostPortsOnReference are
// the cable pickers' lists as projectMapped built them before the
// cable index: a scan of the whole cabling and a fresh slice per
// logical link.
func selfOnReference(c *Cabling, s int) []int {
	var out []int
	for i, sl := range c.SelfLinks {
		if sl.Switch == s {
			out = append(out, i)
		}
	}
	return out
}

func interBetweenReference(c *Cabling, a, b int) []int {
	var out []int
	for i, il := range c.InterLinks {
		if (il.A.Switch == a && il.B.Switch == b) || (il.A.Switch == b && il.B.Switch == a) {
			out = append(out, i)
		}
	}
	return out
}

func hostPortsOnReference(c *Cabling, s int) []int {
	var out []int
	for i, hp := range c.HostPorts {
		if hp.Ref.Switch == s {
			out = append(out, i)
		}
	}
	return out
}

// projectMappedReference is projectMapped as it was before the cable
// index, kept verbatim (names aside) as its oracle: each pick rescans
// its list for the first cable neither alloc nor the call holds.
func projectMappedReference(g *topology.Graph, cab *Cabling, alloc *Allocation, md *mappedDemands) (*Plan, error) {
	parts := md.parts
	partToSwitch := md.partToSwitch

	plan := &Plan{
		Topo:         g,
		Cabling:      cab,
		Parts:        parts,
		PartToSwitch: partToSwitch,
		Ports:        map[PortKey]PortRef{},
		HostAttach:   map[int]PortRef{},
		EdgeLink:     map[int]PhysLink{},
	}

	// Stage the allocation so failures leave alloc untouched.
	selfTaken := map[int]bool{}
	interTaken := map[int]bool{}
	hostTaken := map[int]bool{}
	nextSelf := func(s int) (int, bool) {
		for _, i := range selfOnReference(cab, s) {
			if !alloc.selfUsed[i] && !selfTaken[i] {
				selfTaken[i] = true
				return i, true
			}
		}
		return 0, false
	}
	nextInter := func(s1, s2 int) (int, bool) {
		for _, i := range interBetweenReference(cab, s1, s2) {
			if !alloc.interUsed[i] && !interTaken[i] {
				interTaken[i] = true
				return i, true
			}
		}
		return 0, false
	}
	nextHost := func(s int) (int, bool) {
		for _, i := range hostPortsOnReference(cab, s) {
			if !alloc.hostUsed[i] && !hostTaken[i] {
				hostTaken[i] = true
				return i, true
			}
		}
		return 0, false
	}

	// Project links (the LP step): logical switch-switch edges first.
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
		sa := partToSwitch[parts.Assign[e.A]]
		sb := partToSwitch[parts.Assign[e.B]]
		if sa == sb {
			idx, ok := nextSelf(sa)
			if !ok {
				return nil, fmt.Errorf("projection: %s: out of self-links on switch %s (edge %d); add cables or re-plan cabling",
					g.Name, cab.Switches[sa].ID, eid)
			}
			sl := cab.SelfLinks[idx]
			plan.Ports[PortKey{e.A, e.APort}] = PortRef{sa, sl.PortA}
			plan.Ports[PortKey{e.B, e.BPort}] = PortRef{sa, sl.PortB}
			plan.EdgeLink[eid] = PhysLink{SelfLink: idx, InterLink: -1}
			plan.SelfUsed++
		} else {
			idx, ok := nextInter(sa, sb)
			if !ok {
				return nil, fmt.Errorf("projection: %s: out of inter-switch links between %s and %s (edge %d); reserve more (§VII-A)",
					g.Name, cab.Switches[sa].ID, cab.Switches[sb].ID, eid)
			}
			il := cab.InterLinks[idx]
			refA, refB := il.A, il.B
			if refA.Switch != sa {
				refA, refB = refB, refA
			}
			plan.Ports[PortKey{e.A, e.APort}] = refA
			plan.Ports[PortKey{e.B, e.BPort}] = refB
			plan.EdgeLink[eid] = PhysLink{SelfLink: -1, InterLink: idx}
			plan.InterUsed++
		}
	}
	// Attach hosts.
	for _, h := range g.Hosts() {
		sw := g.HostSwitch(h)
		if sw < 0 {
			continue
		}
		s := partToSwitch[parts.Assign[sw]]
		idx, ok := nextHost(s)
		if !ok {
			return nil, fmt.Errorf("projection: %s: out of host ports on switch %s for host %q",
				g.Name, cab.Switches[s].ID, g.Vertices[h].Label)
		}
		ref := cab.HostPorts[idx].Ref
		plan.HostAttach[h] = ref
		eid := g.EdgeBetween(sw, h)
		plan.Ports[PortKey{sw, g.Edges[eid].PortAt(sw)}] = ref
	}

	// Commit.
	for i := range selfTaken {
		alloc.selfUsed[i] = true
	}
	for i := range interTaken {
		alloc.interUsed[i] = true
	}
	for i := range hostTaken {
		alloc.hostUsed[i] = true
	}
	return plan, nil
}

// releaseReference is Release before the host-port index: a scan of
// every host port per attached host.
func releaseReference(p *Plan, alloc *Allocation) {
	for _, pl := range p.EdgeLink {
		if pl.SelfLink >= 0 {
			alloc.selfUsed[pl.SelfLink] = false
		}
		if pl.InterLink >= 0 {
			alloc.interUsed[pl.InterLink] = false
		}
	}
	for h := range p.HostAttach {
		ref := p.HostAttach[h]
		for i, hp := range p.Cabling.HostPorts {
			if hp.Ref == ref {
				alloc.hostUsed[i] = false
			}
		}
	}
}

// sameAllocation requires two allocations to book the same cables.
func sameAllocation(t *testing.T, how string, got, want *Allocation) {
	t.Helper()
	if !slices.Equal(got.selfUsed, want.selfUsed) || !slices.Equal(got.interUsed, want.interUsed) || !slices.Equal(got.hostUsed, want.hostUsed) {
		t.Fatalf("%s: the allocations differ", how)
	}
}

// TestProjectMappedMatchesReference co-hosts sets of topologies on
// cablings planned for larger ones, projecting each topology at every
// k through projectMapped and the reference on two allocations kept in
// lockstep, then releases a random half and projects the set again into
// the holes left between the other plans' cables. Every Plan, error and
// booking must match.
func TestProjectMappedMatchesReference(t *testing.T) {
	zoo := topology.Zoo(41)
	sets := [][]*topology.Graph{
		{topology.FatTree(4), topology.Torus2D(4, 4, 1), topology.Line(8, 1), topology.Mesh2D(5, 5, 1)},
		{topology.Dragonfly(4, 9, 2, 1), topology.BCube(4, 1), topology.Torus3D(3, 3, 3, 1)},
	}
	for i := 0; i+6 <= 60; i += 6 {
		sets = append(sets, zoo[i:i+6])
	}
	h3c := func(n int) []PhysicalSwitch {
		sw := make([]PhysicalSwitch, n)
		for i := range sw {
			sw[i] = H3CS6861(fmt.Sprint("s", i))
		}
		return sw
	}
	mixed := []PhysicalSwitch{{ID: "m0", Ports: 48}, {ID: "m1", Ports: 88}, {ID: "m2", Ports: 64}, {ID: "m3", Ports: 88}}
	cablings := []struct {
		switches   []PhysicalSwitch
		plannedFor []*topology.Graph
	}{
		{h3c(6), []*topology.Graph{topology.Torus2D(8, 8, 1)}},
		{h3c(4), []*topology.Graph{topology.Torus2D(6, 6, 1), topology.FatTree(6)}},
		{mixed, []*topology.Graph{topology.Torus3D(3, 3, 3, 1)}},
	}
	rng := rand.New(rand.NewSource(17))
	projected, refilled := 0, 0
	for si, set := range sets {
		for _, c := range cablings {
			cab, err := PlanCabling(c.switches, c.plannedFor, partition.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, want := NewAllocation(cab), NewAllocation(cab)
			project := func(g *topology.Graph) (gotPlan, wantPlan *Plan) {
				for k := 1; k <= maxK(g, cab.Switches); k++ {
					md, err := mapDemands(g, cab.Switches, switchOrder(cab.Switches), k)
					if err != nil {
						continue
					}
					how := fmt.Sprintf("set %d %s k=%d", si, g.Name, k)
					gp, gerr := projectMapped(g, cab, got, md)
					wp, werr := projectMappedReference(g, cab, want, md)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gp, wp) {
						t.Fatalf("%s: projectMapped = %v, the reference %v", how, gerr, werr)
					}
					sameAllocation(t, how, got, want)
					if gerr == nil {
						return gp, wp
					}
				}
				return nil, nil
			}
			var gotPlans, wantPlans []*Plan
			for _, g := range set {
				if gp, wp := project(g); gp != nil {
					gotPlans, wantPlans = append(gotPlans, gp), append(wantPlans, wp)
					projected++
				}
			}
			for i := range gotPlans {
				if rng.Intn(2) == 0 {
					continue
				}
				gotPlans[i].Release(got)
				releaseReference(wantPlans[i], want)
				sameAllocation(t, "release "+gotPlans[i].Topo.Name, got, want)
			}
			for _, g := range set {
				if gp, _ := project(g); gp != nil { // into the holes, or out of cables: both must agree
					refilled++
				}
			}
		}
	}
	if projected < 20 || refilled < 5 {
		t.Fatalf("vacuous: %d topologies projected, %d projected again into released cables", projected, refilled)
	}
	t.Logf("%d topologies projected, %d projected again into released cables", projected, refilled)
}

// TestAcquireReportsLowestConflict books two of a released plan's
// inter-links and two of its host ports behind its back. Acquire must
// fail the same way on every call, naming the lowest edge ID, and,
// with the edges freed, the lowest host ID; and must leave the
// allocation as it found it.
func TestAcquireReportsLowestConflict(t *testing.T) {
	g := topology.Torus2D(6, 6, 1) // 180 ports: three switches
	cab, err := PlanCabling(threeSwitches(), []*topology.Graph{g}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alloc := NewAllocation(cab)
	plan, err := ProjectInto(g, cab, alloc, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Release(alloc)
	var inter, hosts []int // edge IDs on inter-links, host IDs, ascending
	for _, e := range g.Edges {
		if pl, ok := plan.EdgeLink[e.ID]; ok && pl.InterLink >= 0 {
			inter = append(inter, e.ID)
		}
	}
	for _, h := range g.Hosts() {
		if _, ok := plan.HostAttach[h]; ok {
			hosts = append(hosts, h)
		}
	}
	if len(inter) < 2 || len(hosts) < 2 {
		t.Fatalf("premise: %d cut edges and %d hosts, want 2 of each", len(inter), len(hosts))
	}
	for _, eid := range inter[len(inter)-2:] { // the two highest, then the lowest too
		alloc.interUsed[plan.EdgeLink[eid].InterLink] = true
	}
	alloc.interUsed[plan.EdgeLink[inter[0]].InterLink] = true
	for _, h := range hosts[:2] {
		i, _ := alloc.idx.hostPort(plan.HostAttach[h])
		alloc.hostUsed[i] = true
	}
	check := func(want string) {
		t.Helper()
		self, in, host := alloc.UsedCounts()
		for call := 0; call < 50; call++ {
			err := plan.Acquire(alloc)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("call %d: Acquire = %v, want it to name %s", call, err, want)
			}
			if s, i, h := alloc.UsedCounts(); s != self || i != in || h != host {
				t.Fatalf("call %d: a failed Acquire changed the allocation", call)
			}
		}
	}
	check(fmt.Sprintf("(edge %d)", inter[0]))
	clear(alloc.interUsed)
	check(fmt.Sprintf("(host %d)", hosts[0]))
	clear(alloc.hostUsed)
	if err := plan.Acquire(alloc); err != nil {
		t.Fatalf("Acquire on a free allocation: %v", err)
	}
	if _, i, h := alloc.UsedCounts(); i != len(inter) || h != len(hosts) {
		t.Fatalf("Acquire booked %d inter-links and %d host ports, want %d and %d", i, h, len(inter), len(hosts))
	}
}

// TestRequirementsUnchanged pins every answer and error the k-searches
// give through Requirements — Projectable's verdicts and the messages a
// user reads — to a SHA-256 taken before the searches stopped
// formatting a shortfall per k and sorting per k.
func TestRequirementsUnchanged(t *testing.T) {
	h := sha256.New()
	for _, spec := range []PhysicalSwitch{H3CS6861("s"), Commodity64("c"), {ID: "tiny", Ports: 16}} {
		for _, g := range append(topology.Zoo(41), topology.BCube(4, 1), topology.FatTree(8), topology.Torus3D(4, 4, 4, 1), dualHomed(40)) {
			for _, m := range []Method{MethodSDT, MethodTurboNet, MethodSPOS, MethodSP} {
				for _, maxSw := range []int{1, 3} {
					req, err := Requirements(g, spec, m, maxSw)
					fmt.Fprintf(h, "%s %s %d: %+v %v\n", g.Name, spec.ID, maxSw, req, err)
				}
			}
		}
	}
	const want = "58f45b5effd460b9bbb6f999d588cfc67f5ab0e893114edd95e5e5cbee6ec06e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Requirements digest %s, want %s", got, want)
	}
}

// subSwitchPortsReference is Plan.SubSwitchPorts as it was before
// CompileFlowTables grouped the port map once per compile: a scan of
// the whole map and an insertion sort, per call. It is the oracle for
// groupPorts.
func subSwitchPortsReference(p *Plan, v int) []PortRef {
	var out []PortRef
	for key, ref := range p.Ports {
		if key.Vertex == v {
			out = append(out, ref)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Switch < out[j-1].Switch || (out[j].Switch == out[j-1].Switch && out[j].Port < out[j-1].Port)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
