package projection

import (
	"cmp"
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

// demandsReference is what one k-way partition of g asks of a cabling,
// as demandsFor computed it before the k-searches kept their demands in
// dense storage: per-part slices and a map over part pairs.
type demandsReference struct {
	K         int
	Self      []int          // per part
	Host      []int          // per part
	Inter     map[[2]int]int // per unordered part pair
	PartPorts []int          // total physical ports needed per part
}

// demandsFor is the reference for demands.of: link demands for a k-way
// partition of g.
func demandsFor(g *topology.Graph, parts *partition.Result) *demandsReference {
	d := &demandsReference{
		K:     parts.K,
		Self:  make([]int, parts.K),
		Host:  make([]int, parts.K),
		Inter: map[[2]int]int{},
	}
	for _, e := range g.Edges {
		if !g.IsSwitchSwitch(e) {
			continue
		}
		pa, pb := parts.Assign[e.A], parts.Assign[e.B]
		if pa == pb {
			d.Self[pa]++
		} else {
			if pa > pb {
				pa, pb = pb, pa
			}
			d.Inter[[2]int{pa, pb}]++
		}
	}
	for _, h := range g.Hosts() {
		if s := g.HostSwitch(h); s >= 0 {
			d.Host[parts.Assign[s]]++
		}
	}
	d.PartPorts = make([]int, parts.K)
	for p := 0; p < parts.K; p++ {
		d.PartPorts[p] = 2*d.Self[p] + d.Host[p]
	}
	for pair, n := range d.Inter {
		d.PartPorts[pair[0]] += n
		d.PartPorts[pair[1]] += n
	}
	return d
}

// partOrderReference returns part indices sorted by descending port
// demand (stable on index).
func partOrderReference(d *demandsReference) []int {
	order := make([]int, d.K)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(d.PartPorts[b], d.PartPorts[a]) })
	return order
}

// fitParts is the reference fit over a materialised switch list: it
// checks the per-part port demand against switch port counts, pairing
// the parts in order (heaviest first) with the switches in swOrder
// (largest first).
func fitParts(d *demandsReference, switches []PhysicalSwitch, swOrder, order []int) error {
	for i, p := range order {
		if i >= len(swOrder) {
			return fmt.Errorf("more parts than switches")
		}
		sw := switches[swOrder[i]]
		if d.PartPorts[p] > sw.Ports {
			return fmt.Errorf("part %d needs %d ports, switch %s has %d", p, d.PartPorts[p], sw.ID, sw.Ports)
		}
	}
	return nil
}

// mappedReference is mapDemands' per-switch demand as the map-based
// mapping computed it: self-links and host ports per switch, inter-links
// per unordered switch pair.
type mappedReference struct {
	partToSwitch []int
	self, host   []int
	inter        map[[2]int]int
}

func mapDemandsReference(g *topology.Graph, parts *partition.Result, switches []PhysicalSwitch) (*mappedReference, error) {
	swOrder := switchOrder(switches)
	d := demandsFor(g, parts)
	order := partOrderReference(d)
	if err := fitParts(d, switches, swOrder, order); err != nil {
		return nil, err
	}
	md := &mappedReference{
		partToSwitch: make([]int, d.K),
		self:         make([]int, len(switches)),
		host:         make([]int, len(switches)),
		inter:        map[[2]int]int{},
	}
	for i, p := range order {
		md.partToSwitch[p] = swOrder[i]
	}
	for p := 0; p < d.K; p++ {
		s := md.partToSwitch[p]
		md.self[s] += d.Self[p]
		md.host[s] += d.Host[p]
	}
	for pair, n := range d.Inter {
		a, b := md.partToSwitch[pair[0]], md.partToSwitch[pair[1]]
		if a > b {
			a, b = b, a
		}
		md.inter[[2]int{a, b}] += n
	}
	return md, nil
}

// minSwitchesReference is minSwitches without the pigeonhole bound and
// with the switch list materialised: every k pays its Cut and fitParts.
// It is the oracle for Projectable's answers.
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
		if d := demandsFor(g, parts); fitParts(d, specs, switchOrder(specs), partOrderReference(d)) == nil {
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
					ks := newSearch(sw)
					bound, short := portShortfall(portsNeeded(g), ks.top[k], k)
					if !short {
						paid++
						continue
					}
					skipped++
					if fitParts(d, sw, switchOrder(sw), partOrderReference(d)) == nil {
						t.Fatalf("%s k=%d on %d switches: bound says %q but the partition fits", g.Name, k, len(sw), bound.text(g, sw))
					}
					if md, _ := ks.mapDemands(g, k); md != nil {
						t.Fatalf("%s k=%d on %d switches: bound says %q but mapDemands succeeds", g.Name, k, len(sw), bound.text(g, sw))
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
				gotK, why := minSwitches(g, spec, maxSw)
				if (gotK > 0) != wantOK || gotK != wantK {
					t.Fatalf("%s on ≤%d × %d ports: minSwitches = %d, %+v; oracle %d, %v",
						g.Name, maxSw, spec.Ports, gotK, why, wantK, wantOK)
				}
				if got := Projectable(g, spec, MethodSDT, maxSw); got != wantOK {
					t.Fatalf("%s on ≤%d × %d ports: Projectable = %v, oracle %v", g.Name, maxSw, spec.Ports, got, wantOK)
				}
			}
		}
	}
}

// TestDemandsMatchReference holds the dense demands and the per-switch
// mapping to the map-based references on every oracle graph at k = 1…8:
// each part's self-links, host ports and total ports, every part pair's
// cut links, and — on a mixed switch list, with one search reused dirty
// across every graph and k — whether the parts fit, the reason they do
// not, and the part-to-switch map and each switch's and switch pair's
// links when they do.
func TestDemandsMatchReference(t *testing.T) {
	switches := []PhysicalSwitch{
		{ID: "m0", Ports: 24}, {ID: "m1", Ports: 88}, {ID: "m2", Ports: 48}, {ID: "m3", Ports: 64},
		{ID: "m4", Ports: 256}, {ID: "m5", Ports: 32}, {ID: "m6", Ports: 88}, {ID: "m7", Ports: 128},
	}
	n := len(switches)
	ks := newSearch(switches)
	d := newDemands(n)
	mapped, failed := 0, 0
	for _, g := range oracleGraphs() {
		for k := 1; k <= min(n, g.NumSwitches()); k++ {
			parts, err := partition.Cut(g, k, partition.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := demandsFor(g, parts)
			d.of(g, parts)
			if !slices.Equal(d.self, want.Self) || !slices.Equal(d.host, want.Host) || !slices.Equal(d.ports, want.PartPorts) {
				t.Fatalf("%s k=%d: self %v host %v ports %v, reference %v %v %v",
					g.Name, k, d.self, d.host, d.ports, want.Self, want.Host, want.PartPorts)
			}
			for a := range k {
				for b := a + 1; b < k; b++ {
					if got, want := d.inter[a*k+b], want.Inter[[2]int{a, b}]; got != want {
						t.Fatalf("%s k=%d: %d links between parts %d and %d, reference %d", g.Name, k, got, a, b, want)
					}
				}
			}
			if got := d.sortParts(); !slices.Equal(got, partOrderReference(want)) {
				t.Fatalf("%s k=%d: part order %v, reference %v", g.Name, k, got, partOrderReference(want))
			}

			md, why := ks.mapDemands(g, k)
			wantMD, werr := mapDemandsReference(g, parts, switches)
			if got := why.text(g, switches); got != fmt.Sprint(werr) || (md == nil) != (wantMD == nil) {
				t.Fatalf("%s k=%d: mapDemands says %q, the reference %v", g.Name, k, got, werr)
			}
			if md == nil {
				failed++
				continue
			}
			mapped++
			if !slices.Equal(md.partToSwitch, wantMD.partToSwitch) || !slices.Equal(md.links.self, wantMD.self) || !slices.Equal(md.links.host, wantMD.host) {
				t.Fatalf("%s k=%d: parts on %v, self %v, host %v; reference %v %v %v", g.Name, k,
					md.partToSwitch, md.links.self, md.links.host, wantMD.partToSwitch, wantMD.self, wantMD.host)
			}
			for a := range n {
				for b := range n {
					got := 0
					if a < b {
						got = md.links.inter[a*n+b]
					}
					if want := wantMD.inter[[2]int{a, b}]; got != want {
						t.Fatalf("%s k=%d: %d links between switches %d and %d, reference %d", g.Name, k, got, a, b, want)
					}
				}
			}
		}
	}
	if mapped == 0 || failed == 0 {
		t.Fatalf("vacuous: %d mappings fit, %d did not", mapped, failed)
	}
	t.Logf("%d mappings fit, %d did not", mapped, failed)
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
	if s, short := portShortfall(portsNeeded(g), spec.Ports, 1); short {
		t.Fatalf("bound skips k=1: %s", s.text(g, nil))
	}
	if !Projectable(g, spec, MethodSDT, 1) {
		t.Fatal("42-port switch should host 2 switches + 40 attached hosts")
	}
	spec.Ports = 41
	if _, short := portShortfall(portsNeeded(g), spec.Ports, 1); !short {
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

// TestProjectableAllocsBounded is the allocation budget of Table II's
// zoo scan at GOMAXPROCS 1 (testing.AllocsPerRun's, where Cut starts no
// helpers), the graphs' indexes warm from AllocsPerRun's first run. The
// scan allocated 6 326 objects, about 24 per graph, while minSwitches
// built a switch list per search, computed each Cut's demands into a
// fresh map, formatted a reason per failed k and Cut built its work
// graph per call. It allocates 663 now: per Cut its Result and the
// Result's array, and per search that pays a Cut one demands array (221
// of the 261 searches pay one Cut each).
func TestProjectableAllocsBounded(t *testing.T) {
	zoo := topology.Zoo(41)
	spec := H3CS6861("s")
	fit := 0
	perScan := testing.AllocsPerRun(3, func() {
		for _, g := range zoo {
			if Projectable(g, spec, MethodSDT, 3) {
				fit++
			}
		}
	})
	if fit == 0 {
		t.Fatal("no zoo graph fits")
	}
	t.Logf("the zoo scan allocates %.0f objects", perScan)
	const limit = 700
	if raceEnabled {
		t.Log("-race: the pool drops Cut's workers at random, so the count is not gated")
	} else if perScan > limit {
		t.Errorf("the zoo scan allocates %.0f objects, limit %d", perScan, limit)
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

// refPlan is a plan as the references build it: the logical-to-physical
// port mapping held three times over, in maps.
type refPlan struct {
	Topo    *topology.Graph
	Cabling *Cabling
	Parts   *partition.Result

	// PartToSwitch maps partition parts to physical switch indices.
	PartToSwitch []int
	// Ports maps every logical switch port to its physical port.
	Ports map[portKey]PortRef
	// HostAttach maps each host vertex to the physical port its NIC
	// plugs into.
	HostAttach map[int]PortRef
	// EdgeLink records, per logical switch-switch edge ID, the physical
	// realisation: either a self-link or an inter-link.
	EdgeLink map[int]physLink

	SelfUsed, InterUsed int
}

// portKey names a logical port: vertex ID and 1-based port number.
type portKey struct {
	Vertex int
	Port   int
}

// physLink is the physical realisation of one logical link.
type physLink struct {
	SelfLink  int // index into Cabling.SelfLinks, or -1
	InterLink int // index into Cabling.InterLinks, or -1
}

// refMaps rebuilds a plan's maps, as the references build them, from
// the plan's accessors; nil for nil.
func refMaps(p *Plan) *refPlan {
	if p == nil {
		return nil
	}
	g := p.Topo
	out := &refPlan{
		Topo:         g,
		Cabling:      p.Cabling,
		Parts:        p.Parts,
		PartToSwitch: p.PartToSwitch,
		Ports:        map[portKey]PortRef{},
		HostAttach:   map[int]PortRef{},
		EdgeLink:     map[int]physLink{},
	}
	for eid, e := range g.Edges {
		if ref, ok := p.portAt(eid, true); ok {
			out.Ports[portKey{e.A, e.APort}] = ref
		}
		if ref, ok := p.portAt(eid, false); ok {
			out.Ports[portKey{e.B, e.BPort}] = ref
		}
		if c := int(p.cable[eid]); c >= 0 && g.IsSwitchSwitch(e) {
			if p.kindOf(e) == selfCable {
				out.EdgeLink[eid] = physLink{SelfLink: c, InterLink: -1}
				out.SelfUsed++
			} else {
				out.EdgeLink[eid] = physLink{SelfLink: -1, InterLink: c}
				out.InterUsed++
			}
		}
	}
	for _, h := range g.Hosts() {
		if ref, ok := p.HostPort(h); ok {
			out.HostAttach[h] = ref
		}
	}
	return out
}

// projectMappedReference is projectMapped as it was before the cable
// index, kept verbatim (names aside) as its oracle: each pick rescans
// its list for the first cable neither alloc nor the call holds.
func projectMappedReference(g *topology.Graph, cab *Cabling, alloc *Allocation, md *mappedDemands) (*refPlan, error) {
	parts := md.parts
	partToSwitch := md.partToSwitch

	plan := &refPlan{
		Topo:         g,
		Cabling:      cab,
		Parts:        parts,
		PartToSwitch: partToSwitch,
		Ports:        map[portKey]PortRef{},
		HostAttach:   map[int]PortRef{},
		EdgeLink:     map[int]physLink{},
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
			plan.Ports[portKey{e.A, e.APort}] = PortRef{sa, sl.PortA}
			plan.Ports[portKey{e.B, e.BPort}] = PortRef{sa, sl.PortB}
			plan.EdgeLink[eid] = physLink{SelfLink: idx, InterLink: -1}
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
			plan.Ports[portKey{e.A, e.APort}] = refA
			plan.Ports[portKey{e.B, e.BPort}] = refB
			plan.EdgeLink[eid] = physLink{SelfLink: -1, InterLink: idx}
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
		plan.Ports[portKey{sw, g.Edges[eid].PortAt(sw)}] = ref
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
func releaseReference(p *refPlan, alloc *Allocation) {
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
// booking must match, and a mapping that runs out of cables must
// allocate nothing.
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
	projected, refilled, failed := 0, 0, 0
	for si, set := range sets {
		for _, c := range cablings {
			cab, err := PlanCabling(c.switches, c.plannedFor, partition.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, want := NewAllocation(cab), NewAllocation(cab)
			project := func(g *topology.Graph) (gotPlan *Plan, wantPlan *refPlan) {
				ks := newSearch(cab.Switches) // wantPlan's PartToSwitch is its storage
				for k := 1; k <= maxK(g, cab.Switches); k++ {
					md, _ := ks.mapDemands(g, k)
					if md == nil {
						continue
					}
					how := fmt.Sprintf("set %d %s k=%d", si, g.Name, k)
					gp, why := projectMapped(g, cab, got, md)
					wp, werr := projectMappedReference(g, cab, want, md)
					if gerr := why.text(g, cab.Switches); gerr != fmt.Sprint(werr) || !reflect.DeepEqual(refMaps(gp), wp) {
						t.Fatalf("%s: projectMapped = %v, the reference %v", how, gerr, werr)
					}
					sameAllocation(t, how, got, want)
					if gp != nil {
						return gp, wp
					}
					if allocs := testing.AllocsPerRun(1, func() { projectMapped(g, cab, got, md) }); allocs != 0 {
						t.Fatalf("%s: projectMapped allocates %.0f objects on a mapping that runs out of cables", how, allocs)
					}
					failed++
				}
				return nil, nil
			}
			var gotPlans []*Plan
			var wantPlans []*refPlan
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
	if projected < 20 || refilled < 5 || failed < 5 {
		t.Fatalf("vacuous: %d topologies projected, %d projected again into released cables, %d mappings out of cables", projected, refilled, failed)
	}
	t.Logf("%d topologies projected, %d projected again into released cables, %d mappings out of cables", projected, refilled, failed)
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
		if plan.cable[e.ID] >= 0 && plan.kindOf(e) == interCable {
			inter = append(inter, e.ID)
		}
	}
	for _, h := range g.Hosts() {
		if eid := plan.attachment(h); eid >= 0 && plan.cable[eid] >= 0 {
			hosts = append(hosts, h)
		}
	}
	if len(inter) < 2 || len(hosts) < 2 {
		t.Fatalf("premise: %d cut edges and %d hosts, want 2 of each", len(inter), len(hosts))
	}
	for _, eid := range inter[len(inter)-2:] { // the two highest, then the lowest too
		alloc.interUsed[plan.cable[eid]] = true
	}
	alloc.interUsed[plan.cable[inter[0]]] = true
	for _, h := range hosts[:2] {
		alloc.hostUsed[plan.cable[plan.attachment(h)]] = true
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

// TestRequirementsErrorsPinned pins the text of every kind of error
// Requirements returns, recorded before the k-searches kept their
// reasons as values and formatted only the one they return: the bound's
// shortfall under each method, a part that overflows its switch (named
// <ID>-0 whichever part it is), a spec with no usable ports and a graph
// with no switches, whose search tries no k at all.
func TestRequirementsErrorsPinned(t *testing.T) {
	zoo := topology.Zoo(41)
	hostsOnly := topology.New("hosts-only")
	hostsOnly.AddHost("h0")
	s6861, tiny := H3CS6861("s"), PhysicalSwitch{ID: "tiny", Ports: 16}
	for _, c := range []struct {
		g     *topology.Graph
		spec  PhysicalSwitch
		m     Method
		maxSw int
		want  string
	}{
		{topology.FatTree(8), s6861, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 88 ports: needs 640 ports, 3 switch(es) have 264"},
		{topology.FatTree(8), s6861, MethodTurboNet, 3, "projection: TurboNet(PM): does not fit on 3 switches of 44 ports: needs 640 ports, 3 switch(es) have 132"},
		{topology.FatTree(8), s6861, MethodSPOS, 3, "projection: SP-OS: does not fit on 3 switches of 88 ports: needs 640 ports, 3 switch(es) have 264"},
		{topology.FatTree(8), s6861, MethodSP, 3, "projection: SP: does not fit on 3 switches of 88 ports: needs 640 ports, 3 switch(es) have 264"},
		{zoo[7], s6861, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 88 ports: needs 345 ports, 3 switch(es) have 264"},
		{zoo[47], s6861, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 88 ports: part 0 needs 90 ports, switch s-0 has 88"},
		{zoo[90], s6861, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 88 ports: part 2 needs 89 ports, switch s-0 has 88"},
		{zoo[27], tiny, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 16 ports: part 1 needs 18 ports, switch tiny-0 has 16"},
		{topology.FatTree(4), tiny, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 16 ports: needs 80 ports, 3 switch(es) have 48"},
		{topology.FatTree(4), tiny, MethodTurboNet, 3, "projection: TurboNet(PM): does not fit on 3 switches of 8 ports: needs 80 ports, 3 switch(es) have 24"},
		{topology.Torus2D(4, 4, 1), PhysicalSwitch{ID: "none"}, MethodSDT, 3, "projection: SDT: switch spec has no usable ports"},
		{topology.Torus2D(4, 4, 1), PhysicalSwitch{ID: "one", Ports: 1}, MethodTurboNet, 3, "projection: TurboNet(PM): switch spec has no usable ports"},
		{hostsOnly, s6861, MethodSDT, 3, "projection: SDT: does not fit on 3 switches of 88 ports: <nil>"},
		{hostsOnly, s6861, MethodSDT, 0, "projection: SDT: does not fit on 1 switches of 88 ports: <nil>"},
	} {
		_, err := Requirements(c.g, c.spec, c.m, c.maxSw)
		if err == nil || err.Error() != c.want {
			t.Errorf("Requirements(%s, %d ports, %s, %d) = %v\nwant %s", c.g.Name, c.spec.Ports, c.m, c.maxSw, err, c.want)
		}
		if Projectable(c.g, c.spec, c.m, c.maxSw) {
			t.Errorf("Projectable(%s, %d ports, %s, %d) = true, Requirements fails", c.g.Name, c.spec.Ports, c.m, c.maxSw)
		}
	}
}

// TestSearchErrorsPinned does the same for PlanCabling's and
// ProjectInto's errors: the last k's reason, of every kind those
// searches overwrite — shortfall, overflow on a mixed switch list, a
// reservation over budget, and each cable kind running out.
func TestSearchErrorsPinned(t *testing.T) {
	mixed := []PhysicalSwitch{{ID: "m0", Ports: 24}, {ID: "m1", Ports: 88}, {ID: "m2", Ports: 48}, {ID: "m3", Ports: 64}}
	for _, c := range []struct {
		switches []PhysicalSwitch
		topos    []*topology.Graph
		want     string
	}{
		{mixed, []*topology.Graph{topology.Torus2D(6, 6, 1)}, `projection: topology "torus2d-6x6" does not fit on 4 switch(es): part 3 needs 45 ports, switch m0 has 24`},
		{mixed[1:3], []*topology.Graph{topology.Torus2D(6, 6, 1)}, `projection: topology "torus2d-6x6" does not fit on 2 switch(es): needs 180 ports, 2 switch(es) have 136`},
		{mixed, []*topology.Graph{topology.Torus2D(5, 5, 1), topology.Zoo(41)[6]}, `projection: topology "zoo-006" does not fit on 4 switch(es): k=4 reservation exceeds port budget`},
	} {
		if _, err := PlanCabling(c.switches, c.topos, partition.Options{}); err == nil || err.Error() != c.want {
			t.Errorf("PlanCabling(%s) = %v\nwant %s", c.topos[len(c.topos)-1].Name, err, c.want)
		}
	}
	cab, err := PlanCabling(threeSwitches(), []*topology.Graph{topology.FatTree(4)}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One switch, one self-link, one host port: line-2's link fits and
	// its second host does not.
	oneHost := &Cabling{
		Switches:  []PhysicalSwitch{H3CS6861("solo")},
		SelfLinks: []SelfLink{{Switch: 0, PortA: 1, PortB: 2}},
		HostPorts: []HostPort{{Ref: PortRef{0, 3}}},
	}
	for _, c := range []struct {
		g    *topology.Graph
		cab  *Cabling
		want string
	}{
		{topology.Dragonfly(4, 9, 2, 1), cab, `projection: cannot project "dragonfly-a4-g9-h2" onto cabling: projection: dragonfly-a4-g9-h2: out of self-links on switch s6861-b (edge 6); add cables or re-plan cabling`},
		{topology.Torus3D(3, 3, 3, 1), cab, `projection: cannot project "torus3d-3x3x3" onto cabling: projection: torus3d-3x3x3: out of inter-switch links between s6861-a and s6861-b (edge 1); reserve more (§VII-A)`},
		{topology.FatTree(8), cab, `projection: cannot project "fattree-k8" onto cabling: needs 640 ports, 3 switch(es) have 264`},
		{topology.Line(2, 1), oneHost, `projection: cannot project "line-2" onto cabling: projection: line-2: out of host ports on switch solo for host "h1-0"`},
	} {
		if _, err := Project(c.g, c.cab, partition.Options{}); err == nil || err.Error() != c.want {
			t.Errorf("Project(%s) = %v\nwant %s", c.g.Name, err, c.want)
		}
	}
}

// subSwitchPortsReference is Plan.SubSwitchPorts as it was before
// CompileFlowTables grouped the port map once per compile: a scan of
// the whole map and an insertion sort, per call. It is the oracle for
// groupPorts.
func subSwitchPortsReference(p *refPlan, v int) []PortRef {
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
