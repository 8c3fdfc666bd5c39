// Package projection implements Topology Projection (TP) — the paper's
// core contribution — projecting logical topologies onto a small set of
// commodity OpenFlow switches.
//
// SDT's Link Projection (LP, §IV): physical cabling is fixed once
// (pairs of adjacent ports joined into "self-links", a reserve of
// cables between physical switches as "inter-switch links", and ports
// wired to hosts). To realise a logical topology, each logical link is
// assigned to a physical link; the physical ports then inherit the
// logical port labels, logical switches become sub-switches (groups of
// physical ports), and OpenFlow flow tables confine forwarding to each
// sub-switch's domain. Reconfiguration = rewriting flow tables only.
//
// The package also models the baselines of Table II: SP (manual
// recabling), SP-OS (MEMS optical switch does the recabling) and
// TurboNet's Port-Mapper mode (loopback ports at half bandwidth).
package projection

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/partition"
	"repro/internal/topology"
)

// PhysicalSwitch describes one commodity OpenFlow switch.
type PhysicalSwitch struct {
	ID       string
	Ports    int // usable front-panel ports
	TableCap int // flow-table entries; 0 = unlimited
}

// H3CS6861 mirrors the paper's testbed switch: 64 10G SFP+ ports plus
// 6 40G QSFP+ ports split 4-way into 24 more 10G ports — 88 usable
// ports. The flow-table budget reflects the exact-match table
// (commodity silicon holds tens of thousands of exact-match entries;
// the 4k figure usually quoted is the wildcard TCAM).
func H3CS6861(id string) PhysicalSwitch {
	return PhysicalSwitch{ID: id, Ports: 88, TableCap: 16384}
}

// Commodity64 is a generic 64-port OpenFlow switch used in scalability
// sweeps.
func Commodity64(id string) PhysicalSwitch {
	return PhysicalSwitch{ID: id, Ports: 64, TableCap: 4096}
}

// PortRef names one physical port: switch index (into the cabling's
// switch list) and 1-based port number.
type PortRef struct {
	Switch int
	Port   int
}

func (p PortRef) String() string { return fmt.Sprintf("sw%d.p%d", p.Switch, p.Port) }

// SelfLink is a cable joining two ports of the same physical switch
// ("the switch's upper and lower adjacent ports are connected", §IV-A).
type SelfLink struct {
	Switch int
	PortA  int
	PortB  int
}

// InterLink is a cable joining ports on two different physical switches
// (§IV-B), reserved for logical links that cross sub-topologies.
type InterLink struct {
	A PortRef
	B PortRef
}

// HostPort is a physical port wired to a compute node.
type HostPort struct {
	Ref PortRef
}

// Cabling is the fixed physical wiring of an SDT deployment. Once
// built, any topology whose demands fit these reserves can be deployed
// or re-deployed without touching a cable.
type Cabling struct {
	Switches   []PhysicalSwitch
	SelfLinks  []SelfLink
	InterLinks []InterLink
	HostPorts  []HostPort
}

// Validate checks that the cabling uses each port at most once and
// stays within each switch's port count.
func (c *Cabling) Validate() error {
	// used[base[s]+port-1] is the cable holding that port of switch s;
	// names are formatted only for an error.
	base := make([]int, len(c.Switches)+1)
	for s, sw := range c.Switches {
		base[s+1] = base[s] + max(sw.Ports, 0)
	}
	used := make([]claimant, base[len(c.Switches)])
	claim := func(r PortRef, what claimant) error {
		if r.Switch < 0 || r.Switch >= len(c.Switches) {
			return fmt.Errorf("projection: %v references switch %d out of range", what, r.Switch)
		}
		if r.Port < 1 || r.Port > c.Switches[r.Switch].Ports {
			return fmt.Errorf("projection: %v references port %v out of range", what, r)
		}
		at := &used[base[r.Switch]+r.Port-1]
		if at.kind != unclaimed {
			return fmt.Errorf("projection: port %v used by both %v and %v", r, *at, what)
		}
		*at = what
		return nil
	}
	for i, sl := range c.SelfLinks {
		if sl.PortA == sl.PortB {
			return fmt.Errorf("projection: self-link %d joins a port to itself", i)
		}
		if err := claim(PortRef{sl.Switch, sl.PortA}, claimant{selfLinkClaim, i}); err != nil {
			return err
		}
		if err := claim(PortRef{sl.Switch, sl.PortB}, claimant{selfLinkClaim, i}); err != nil {
			return err
		}
	}
	for i, il := range c.InterLinks {
		if il.A.Switch == il.B.Switch {
			return fmt.Errorf("projection: inter-link %d stays on one switch", i)
		}
		if err := claim(il.A, claimant{interLinkClaim, i}); err != nil {
			return err
		}
		if err := claim(il.B, claimant{interLinkClaim, i}); err != nil {
			return err
		}
	}
	for i, hp := range c.HostPorts {
		if err := claim(hp.Ref, claimant{hostPortClaim, i}); err != nil {
			return err
		}
	}
	return nil
}

// claimant names the cable holding a port for Validate: which list it
// is in and its index there.
type claimant struct {
	kind claimKind
	i    int
}

type claimKind uint8

const (
	unclaimed claimKind = iota
	selfLinkClaim
	interLinkClaim
	hostPortClaim
)

func (c claimant) String() string {
	return fmt.Sprintf("%s %d", [...]string{"", "self-link", "inter-link", "host port"}[c.kind], c.i)
}

// demands is what one k-way partition of g asks of the switches it is
// projected onto (Eq. 1–2 of the paper): per part its self-links, host
// ports and total ports, and per pair of parts a < b the links cut
// between them, at inter[a·k+b]. A k-search computes every k's demands
// into the same storage, sized once for its largest k.
type demands struct {
	self, host, ports []int
	inter             []int
	order             []int // sortParts' buffer
}

// newDemands returns demands storage for up to maxK parts, in one array.
func newDemands(maxK int) demands {
	buf := make([]int, 4*maxK+maxK*maxK)
	take := func(n int) []int {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return demands{self: take(maxK), host: take(maxK), ports: take(maxK), order: take(maxK), inter: take(maxK * maxK)}
}

// of computes the demands of the partition parts of g.
func (d *demands) of(g *topology.Graph, parts *partition.Result) {
	k := parts.K
	d.self, d.host, d.ports, d.inter = d.self[:k], d.host[:k], d.ports[:k], d.inter[:k*k]
	clear(d.self)
	clear(d.host)
	clear(d.inter)
	for _, e := range g.Edges {
		if !g.IsSwitchSwitch(e) {
			continue
		}
		pa, pb := parts.Assign[e.A], parts.Assign[e.B]
		if pa == pb {
			d.self[pa]++
		} else {
			d.inter[min(pa, pb)*k+max(pa, pb)]++
		}
	}
	for _, h := range g.Hosts() {
		if s := g.HostSwitch(h); s >= 0 {
			d.host[parts.Assign[s]]++
		}
	}
	for p := range k {
		d.ports[p] = 2*d.self[p] + d.host[p]
	}
	for a := range k {
		for b := a + 1; b < k; b++ {
			n := d.inter[a*k+b]
			d.ports[a] += n
			d.ports[b] += n
		}
	}
}

// sortParts returns the parts by descending port demand (stable on
// index), in d's buffer.
func (d *demands) sortParts() []int {
	order := d.order[:len(d.ports)]
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(d.ports[b], d.ports[a]) })
	return order
}

// switchLinks counts links by physical switch: the self-links and host
// ports on each of n switches, and the inter-links between switches
// a < b at inter[a·n+b], all three laid out in all. It is one part
// mapping's demand and PlanCabling's running reservation.
type switchLinks struct {
	self, host, inter []int
	all               []int
}

func newSwitchLinks(n int) switchLinks {
	all := make([]int, 2*n+n*n)
	return switchLinks{self: all[:n:n], host: all[n : 2*n : 2*n], inter: all[2*n:], all: all}
}

// union sets every count of l to the larger of a's and b's.
func (l *switchLinks) union(a, b *switchLinks) {
	for i := range l.all {
		l.all[i] = max(a.all[i], b.all[i])
	}
}

// ports returns the ports switch s's links take.
func (l *switchLinks) ports(s int) int {
	n := len(l.self)
	used := 2*l.self[s] + l.host[s]
	for t := range n {
		if t != s {
			used += l.inter[min(s, t)*n+max(s, t)]
		}
	}
	return used
}

// fits reports whether every switch has the ports its links take.
func (l *switchLinks) fits(switches []PhysicalSwitch) bool {
	for s, sw := range switches {
		if l.ports(s) > sw.Ports {
			return false
		}
	}
	return true
}

// total returns the ports all the links take.
func (l *switchLinks) total() int {
	t := 0
	for s := range l.self {
		t += 2*l.self[s] + l.host[s]
	}
	for _, n := range l.inter {
		t += 2 * n
	}
	return t
}

// mappedDemands is one k-way partition of g mapped onto physical
// switches (heaviest part to the largest switch): the partition, the
// part-to-switch map and the links it asks of each switch.
type mappedDemands struct {
	parts        *partition.Result
	partToSwitch []int
	links        switchLinks
}

// search is what a k-search over a list of switches (PlanCabling,
// ProjectInto) keeps for all of its k: the switches' order and port
// totals, and the storage every k's demands and mapping are computed
// into.
type search struct {
	switches []PhysicalSwitch
	swOrder  []int // switchOrder(switches)
	top      []int // top[k]: the ports of the k largest switches
	d        demands
	md       mappedDemands
}

func newSearch(switches []PhysicalSwitch) *search {
	n := len(switches)
	s := &search{
		switches: switches,
		swOrder:  switchOrder(switches),
		top:      make([]int, n+1),
		d:        newDemands(n),
		md:       mappedDemands{partToSwitch: make([]int, n), links: newSwitchLinks(n)},
	}
	for i, sw := range s.swOrder {
		s.top[i+1] = s.top[i] + switches[sw].Ports
	}
	return s
}

// mapDemands partitions g into k parts and pairs the parts, heaviest
// first, with the switches, largest first. It returns the mapping,
// valid until the next call, or why the pairing does not fit.
func (s *search) mapDemands(g *topology.Graph, k int) (*mappedDemands, reason) {
	parts, err := partition.Cut(g, k, partition.Options{})
	if err != nil {
		return nil, reason{kind: cutFailed, err: err}
	}
	d := &s.d
	d.of(g, parts)
	order := d.sortParts()
	for i, p := range order {
		if sw := s.swOrder[i]; d.ports[p] > s.switches[sw].Ports {
			return nil, reason{kind: partOverflows, part: p, need: d.ports[p], sw: sw, have: s.switches[sw].Ports}
		}
	}
	md := &s.md
	md.parts = parts
	md.partToSwitch = md.partToSwitch[:k]
	for i, p := range order {
		md.partToSwitch[p] = s.swOrder[i]
	}
	l := &md.links
	n := len(l.self)
	clear(l.all)
	for p := range k {
		sw := md.partToSwitch[p]
		l.self[sw] += d.self[p]
		l.host[sw] += d.host[p]
	}
	for a := range k {
		for b := a + 1; b < k; b++ {
			sa, sb := md.partToSwitch[a], md.partToSwitch[b]
			l.inter[min(sa, sb)*n+max(sa, sb)] += d.inter[a*k+b]
		}
	}
	return md, reason{}
}

// maxK bounds the useful part count for g on the given switch set.
func maxK(g *topology.Graph, switches []PhysicalSwitch) int {
	k := len(switches)
	if n := g.NumSwitches(); n < k {
		k = n
	}
	return k
}

// portsNeeded is the total port demand of every partition of g, the
// pigeonhole bound the three k-searches (minSwitches, PlanCabling,
// ProjectInto) apply before paying for a Cut: Σ_p demands.ports[p] does
// not depend on the partition — every switch-switch edge costs two
// ports wherever its endpoints land (2·self inside a part, one port on
// each side of a cut) and every attached host costs one — and the
// searches pair the k parts with the k largest switches, so if that sum
// exceeds those switches' ports some part must exceed its switch. Hosts
// are counted the way demands.of counts them (once per attached host),
// not with Graph.HostFacingPorts, which counts a multi-homed host once
// per link.
func portsNeeded(g *topology.Graph) int {
	need := g.SwitchPortCount() // two per switch-switch edge
	for _, h := range g.Hosts() {
		if g.HostSwitch(h) >= 0 {
			need++
		}
	}
	return need
}

// portShortfall compares need (portsNeeded) with have, the ports of the
// k largest switches, and reports whether no k-way partition can fit,
// with the reason.
func portShortfall(need, have, k int) (reason, bool) {
	return reason{kind: shortOfPorts, k: k, need: need, have: have}, need > have
}

// reason is why one k of a k-search failed, kept as plain values: a
// search overwrites it on every k that fails and formats, with text,
// only the one it reports, if it reports one.
type reason struct {
	kind       reasonKind
	k, part    int   // the part count; the part that overflows its switch
	need, have int   // ports needed and ports there
	sw, sw2    int   // switches, as indices into the search's list
	at         int   // the edge or host vertex that found no cable
	err        error // Cut's
}

type reasonKind uint8

const (
	noReason      reasonKind = iota
	shortOfPorts             // the k largest switches have too few ports for any partition
	partOverflows            // a part needs more ports than the switch it is paired with
	overBudget               // PlanCabling: the mapping takes the reservation past a switch
	cutFailed                // partition.Cut returned err
	noSelfLink               // projectMapped: no free self-link on sw for edge at
	noInterLink              // projectMapped: no free inter-link between sw and sw2 for edge at
	noHostPort               // projectMapped: no free host port on sw for host at
)

// text formats r as found by a search over switches for g; the zero
// reason reads as a nil error does.
func (r reason) text(g *topology.Graph, switches []PhysicalSwitch) string {
	switch r.kind {
	case shortOfPorts:
		return fmt.Sprintf("needs %d ports, %d switch(es) have %d", r.need, r.k, r.have)
	case partOverflows:
		return fmt.Sprintf("part %d needs %d ports, switch %s has %d", r.part, r.need, switches[r.sw].ID, r.have)
	case overBudget:
		return fmt.Sprintf("k=%d reservation exceeds port budget", r.k)
	case cutFailed:
		return r.err.Error()
	case noSelfLink:
		return fmt.Sprintf("projection: %s: out of self-links on switch %s (edge %d); add cables or re-plan cabling",
			g.Name, switches[r.sw].ID, r.at)
	case noInterLink:
		return fmt.Sprintf("projection: %s: out of inter-switch links between %s and %s (edge %d); reserve more (§VII-A)",
			g.Name, switches[r.sw].ID, switches[r.sw2].ID, r.at)
	case noHostPort:
		return fmt.Sprintf("projection: %s: out of host ports on switch %s for host %q",
			g.Name, switches[r.sw].ID, g.Vertices[r.at].Label)
	}
	return "<nil>"
}

// switchOrder returns switch indices sorted by descending port count
// (stable on index).
func switchOrder(switches []PhysicalSwitch) []int {
	order := make([]int, len(switches))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(switches[b].Ports, switches[a].Ports) })
	return order
}

// PlanCabling computes a fixed physical wiring able to host every
// topology in topos (§IV-B: "we generally divide the topologies in
// advance ... the reserved inter-switch links usually come from the
// maximum inter-switch links among all topologies"). Larger topologies
// are reserved first; each subsequent topology picks the part count
// whose demands add the fewest new ports to the reservation, which
// keeps inter-switch links "about the same" across switch pairs as the
// paper recommends. Port layout per switch: host ports first, then
// self-link pairs on adjacent ports, then inter-link ports. The
// partition.Options argument has no fields and is ignored.
func PlanCabling(switches []PhysicalSwitch, topos []*topology.Graph, _ partition.Options) (*Cabling, error) {
	if len(topos) == 0 {
		return nil, fmt.Errorf("projection: no topologies to plan for")
	}
	if len(switches) == 0 {
		return nil, fmt.Errorf("projection: no physical switches")
	}
	n := len(switches)
	// Biggest topologies first: they constrain the layout.
	order := make([]int, len(topos))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return topos[order[a]].SwitchPortCount() > topos[order[b]].SwitchPortCount()
	})
	// res is the reservation so far; cand is a k's union with it and
	// best the cheapest union yet, swapped rather than copied.
	res, cand, best := newSwitchLinks(n), newSwitchLinks(n), newSwitchLinks(n)
	ks := newSearch(switches)
	for _, ti := range order {
		g := topos[ti]
		if g.NumSwitches() == 0 {
			return nil, fmt.Errorf("projection: topology %q has no switches to project", g.Name)
		}
		bestCost := -1
		var why reason
		need := portsNeeded(g)
		for k := 1; k <= maxK(g, switches); k++ {
			if r, short := portShortfall(need, ks.top[k], k); short {
				why = r
				continue
			}
			md, r := ks.mapDemands(g, k)
			if md == nil {
				why = r
				continue
			}
			cand.union(&res, &md.links)
			if !cand.fits(switches) {
				why = reason{kind: overBudget, k: k}
				continue
			}
			cost := cand.total() - res.total()
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				best, cand = cand, best
			}
			if cost == 0 {
				break // free under the existing reservation
			}
		}
		if bestCost < 0 {
			return nil, fmt.Errorf("projection: topology %q does not fit on %d switch(es): %s",
				g.Name, len(switches), why.text(g, switches))
		}
		res, best = best, res
	}
	cab := &Cabling{Switches: append([]PhysicalSwitch(nil), switches...)}
	next := make([]int, n) // next free port per switch
	for i := range next {
		next[i] = 1
	}
	take := func(s int) (int, error) {
		if next[s] > switches[s].Ports {
			return 0, fmt.Errorf("projection: switch %s out of ports while reserving cabling", switches[s].ID)
		}
		p := next[s]
		next[s]++
		return p, nil
	}
	for s := 0; s < n; s++ {
		for i := 0; i < res.host[s]; i++ {
			p, err := take(s)
			if err != nil {
				return nil, err
			}
			cab.HostPorts = append(cab.HostPorts, HostPort{Ref: PortRef{s, p}})
		}
		for i := 0; i < res.self[s]; i++ {
			pa, err := take(s)
			if err != nil {
				return nil, err
			}
			pb, err := take(s)
			if err != nil {
				return nil, err
			}
			cab.SelfLinks = append(cab.SelfLinks, SelfLink{Switch: s, PortA: pa, PortB: pb})
		}
	}
	// Inter-links by switch pair in ascending (a, b) order.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for i := 0; i < res.inter[a*n+b]; i++ {
				pa, err := take(a)
				if err != nil {
					return nil, err
				}
				pb, err := take(b)
				if err != nil {
					return nil, err
				}
				cab.InterLinks = append(cab.InterLinks, InterLink{A: PortRef{a, pa}, B: PortRef{b, pb}})
			}
		}
	}
	if err := cab.Validate(); err != nil {
		return nil, err
	}
	return cab, nil
}
