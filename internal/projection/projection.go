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

// Demands summarises what one topology requires of a cabling after
// partitioning: per-part self-links and host ports, and pairwise
// inter-switch links (Eq. 1–2 of the paper).
type Demands struct {
	K         int
	Self      []int          // per part
	Host      []int          // per part
	Inter     map[[2]int]int // per unordered part pair
	PartPorts []int          // total physical ports needed per part
}

// demandsFor computes link demands for a k-way partition of g.
func demandsFor(g *topology.Graph, parts *partition.Result) *Demands {
	d := &Demands{
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

// mappedDemands partitions g into k parts and maps parts onto physical
// switches (heaviest part to the largest switch), returning per-switch
// self-link/host-port demand and per-switch-pair inter-link demand.
type mappedDemands struct {
	parts        *partition.Result
	partToSwitch []int
	self, host   []int          // indexed by physical switch
	inter        map[[2]int]int // unordered physical switch pair
}

func mapDemands(g *topology.Graph, switches []PhysicalSwitch, swOrder []int, k int) (*mappedDemands, error) {
	parts, err := partition.Cut(g, k, partition.Options{})
	if err != nil {
		return nil, err
	}
	d := demandsFor(g, parts)
	order := partOrder(d)
	if err := fitParts(d, switches, swOrder, order); err != nil {
		return nil, err
	}
	md := &mappedDemands{
		parts:        parts,
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

// maxK bounds the useful part count for g on the given switch set.
func maxK(g *topology.Graph, switches []PhysicalSwitch) int {
	k := len(switches)
	if n := g.NumSwitches(); n < k {
		k = n
	}
	return k
}

// fitParts checks the per-part port demand against switch port counts,
// pairing the parts in order (partOrder's, heaviest first) with the
// switches in swOrder (switchOrder's, largest first).
func fitParts(d *Demands, switches []PhysicalSwitch, swOrder, order []int) error {
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

// portsNeeded is the total port demand of every partition of g, the
// pigeonhole bound the three k-searches (minSwitches, PlanCabling,
// ProjectInto) apply before paying for a Cut: Σ_p Demands.PartPorts[p]
// does not depend on the partition — every switch-switch edge costs two
// ports wherever its endpoints land (2·Self inside a part, one port on
// each side of a cut) and every attached host costs one — and fitParts
// pairs the k parts with the k largest switches, so if that sum exceeds
// those switches' ports some part must exceed its switch. Hosts are
// counted the way demandsFor counts them (once per attached host), not
// with Graph.HostFacingPorts, which counts a multi-homed host once per
// link.
func portsNeeded(g *topology.Graph) int {
	need := g.SwitchPortCount() // two per switch-switch edge
	for _, h := range g.Hosts() {
		if g.HostSwitch(h) >= 0 {
			need++
		}
	}
	return need
}

// shortfall is the bound's verdict on one k: the k largest switches
// have have ports where the graph needs need.
type shortfall struct{ need, have, k int }

// short reports whether no k-way partition can pass fitParts.
func (s shortfall) short() bool { return s.need > s.have }

// Error describes a shortfall. A k-search keeps a pointer to its last
// one as the reason a k failed, so the text is formatted only for the
// k the search reports, if it reports one.
func (s shortfall) Error() string {
	return fmt.Sprintf("needs %d ports, %d switch(es) have %d", s.need, s.k, s.have)
}

// portShortfall compares need (portsNeeded) with the ports of the k
// largest switches, the first k of swOrder (switchOrder's).
func portShortfall(need int, switches []PhysicalSwitch, swOrder []int, k int) shortfall {
	have := 0
	for _, s := range swOrder[:k] {
		have += switches[s].Ports
	}
	return shortfall{need: need, have: have, k: k}
}

// partOrder returns part indices sorted by descending port demand
// (stable on index).
func partOrder(d *Demands) []int {
	order := make([]int, d.K)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(d.PartPorts[b], d.PartPorts[a]) })
	return order
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

// reservation is the running union of link demands during cabling
// planning.
type reservation struct {
	self, host []int
	inter      map[[2]int]int
}

func newReservation(n int) *reservation {
	return &reservation{self: make([]int, n), host: make([]int, n), inter: map[[2]int]int{}}
}

// union merges md into a copy of r.
func (r *reservation) union(md *mappedDemands) *reservation {
	out := newReservation(len(r.self))
	copy(out.self, r.self)
	copy(out.host, r.host)
	for k, v := range r.inter {
		out.inter[k] = v
	}
	for s := range md.self {
		if md.self[s] > out.self[s] {
			out.self[s] = md.self[s]
		}
		if md.host[s] > out.host[s] {
			out.host[s] = md.host[s]
		}
	}
	for pair, n := range md.inter {
		if n > out.inter[pair] {
			out.inter[pair] = n
		}
	}
	return out
}

// portsUsed computes per-switch port consumption of the reservation.
func (r *reservation) portsUsed(n int) []int {
	used := make([]int, n)
	for s := 0; s < n; s++ {
		used[s] = 2*r.self[s] + r.host[s]
	}
	for pair, cnt := range r.inter {
		used[pair[0]] += cnt
		used[pair[1]] += cnt
	}
	return used
}

// fits reports whether the reservation stays within switch port counts.
func (r *reservation) fits(switches []PhysicalSwitch) bool {
	for s, used := range r.portsUsed(len(switches)) {
		if used > switches[s].Ports {
			return false
		}
	}
	return true
}

func (r *reservation) totalPorts(n int) int {
	t := 0
	for _, u := range r.portsUsed(n) {
		t += u
	}
	return t
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
	res := newReservation(n)
	swOrder := switchOrder(switches)
	for _, ti := range order {
		g := topos[ti]
		if g.NumSwitches() == 0 {
			return nil, fmt.Errorf("projection: topology %q has no switches to project", g.Name)
		}
		bestCost := -1
		var bestRes *reservation
		var lastErr error
		var short shortfall
		need := portsNeeded(g)
		for k := 1; k <= maxK(g, switches); k++ {
			if s := portShortfall(need, switches, swOrder, k); s.short() {
				short, lastErr = s, &short
				continue
			}
			md, err := mapDemands(g, switches, swOrder, k)
			if err != nil {
				lastErr = err
				continue
			}
			cand := res.union(md)
			if !cand.fits(switches) {
				lastErr = fmt.Errorf("k=%d reservation exceeds port budget", k)
				continue
			}
			cost := cand.totalPorts(n) - res.totalPorts(n)
			if bestCost < 0 || cost < bestCost {
				bestCost, bestRes = cost, cand
			}
			if cost == 0 {
				break // free under the existing reservation
			}
		}
		if bestRes == nil {
			return nil, fmt.Errorf("projection: topology %q does not fit on %d switch(es): %v",
				g.Name, len(switches), lastErr)
		}
		res = bestRes
	}
	maxSelf, maxHost, maxInter := res.self, res.host, res.inter
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
		for i := 0; i < maxHost[s]; i++ {
			p, err := take(s)
			if err != nil {
				return nil, err
			}
			cab.HostPorts = append(cab.HostPorts, HostPort{Ref: PortRef{s, p}})
		}
		for i := 0; i < maxSelf[s]; i++ {
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
	pairs := make([][2]int, 0, len(maxInter))
	for pair := range maxInter {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pair := range pairs {
		for i := 0; i < maxInter[pair]; i++ {
			pa, err := take(pair[0])
			if err != nil {
				return nil, err
			}
			pb, err := take(pair[1])
			if err != nil {
				return nil, err
			}
			cab.InterLinks = append(cab.InterLinks, InterLink{A: PortRef{pair[0], pa}, B: PortRef{pair[1], pb}})
		}
	}
	if err := cab.Validate(); err != nil {
		return nil, err
	}
	return cab, nil
}
