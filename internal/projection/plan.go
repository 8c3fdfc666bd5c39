package projection

import (
	"fmt"
	"slices"

	"repro/internal/partition"
	"repro/internal/topology"
)

// Allocation tracks which physical links and ports of a cabling are in
// use, so several logical topologies can be co-hosted on one testbed
// (the hardware-isolation scenario of §VI-B). It also indexes the
// cabling's cables by where they run, once, for the link pickers. The
// index lives here rather than on the Cabling, a plain value type: an
// allocation's cabling is fixed for its life.
type Allocation struct {
	// used books the cabling's cables by slot (see Plan.slot);
	// selfUsed, interUsed and hostUsed are its windows on each kind.
	used                          []bool
	selfUsed, interUsed, hostUsed []bool
	idx                           cableIndex
}

// NewAllocation returns an empty allocation over cab.
func NewAllocation(cab *Cabling) *Allocation {
	self, inter := len(cab.SelfLinks), len(cab.SelfLinks)+len(cab.InterLinks)
	used := make([]bool, inter+len(cab.HostPorts))
	return &Allocation{
		used:      used,
		selfUsed:  used[:self:self],
		interUsed: used[self:inter:inter],
		hostUsed:  used[inter:],
		idx:       newCableIndex(cab),
	}
}

// cableIndex lists a cabling's cables by where they run, as indices
// into the cabling's lists, each list in cable order and all of them
// back to back in at: list l is at[start[l]:start[l+1]]. Lists 0…n−1
// hold the self-links on each switch, n…2n−1 the host ports on each
// switch and 2n + a·n + b the inter-links between switches a < b, n
// being the switch count (see selfList, hostList, interList). A cable
// naming a switch out of range, or an inter-link with both ends on one
// switch, is in no list.
//
// cursor and picked are projectMapped's scratch: one position per
// list, and the cable index chosen for each logical edge.
type cableIndex struct {
	n      int
	start  []int32
	at     []int32
	cursor []int32
	picked []int32
}

func newCableIndex(cab *Cabling) cableIndex {
	n := len(cab.Switches)
	ix := cableIndex{n: n}
	inRange := func(s int) bool { return s >= 0 && s < n }
	each := func(visit func(l, i int)) {
		for i, sl := range cab.SelfLinks {
			if inRange(sl.Switch) {
				visit(ix.selfList(sl.Switch), i)
			}
		}
		for i, hp := range cab.HostPorts {
			if inRange(hp.Ref.Switch) {
				visit(ix.hostList(hp.Ref.Switch), i)
			}
		}
		for i, il := range cab.InterLinks {
			if a, b := il.A.Switch, il.B.Switch; inRange(a) && inRange(b) && a != b {
				visit(ix.interList(a, b), i)
			}
		}
	}
	lists := 2*n + n*n
	count := make([]int32, lists+1)
	each(func(l, _ int) { count[l+1]++ })
	for l := 0; l < lists; l++ {
		count[l+1] += count[l]
	}
	ix.start = slices.Clone(count)
	ix.at = make([]int32, count[lists])
	each(func(l, i int) {
		ix.at[count[l]] = int32(i)
		count[l]++
	})
	ix.cursor = make([]int32, lists)
	return ix
}

// selfList, hostList and interList name the lists of the self-links
// and host ports on switch s and of the inter-links between switches
// a ≠ b.
func (ix *cableIndex) selfList(s int) int { return s }

func (ix *cableIndex) hostList(s int) int { return ix.n + s }

func (ix *cableIndex) interList(a, b int) int {
	return 2*ix.n + min(a, b)*ix.n + max(a, b)
}

// rewind puts every list's cursor at the list's head.
func (ix *cableIndex) rewind() { copy(ix.cursor, ix.start) }

// next returns the first cable of list l at or after its cursor that
// used does not hold, and moves the cursor past it.
func (ix *cableIndex) next(l int, used []bool) (int, bool) {
	for end := ix.start[l+1]; ix.cursor[l] < end; {
		i := ix.at[ix.cursor[l]]
		ix.cursor[l]++
		if !used[i] {
			return int(i), true
		}
	}
	return 0, false
}

// commit marks every cable before a cursor used: each was held already
// or has been taken.
func (ix *cableIndex) commit(a *Allocation) {
	for l, end := range ix.cursor {
		used := a.interUsed
		switch {
		case l < ix.n:
			used = a.selfUsed
		case l < 2*ix.n:
			used = a.hostUsed
		}
		for _, i := range ix.at[ix.start[l]:end] {
			used[i] = true
		}
	}
}

// Plan is the result of projecting one logical topology onto a cabling:
// the cable that realises each logical link. A switch–switch edge gets
// a self-link when both its ends sit on one physical switch and an
// inter-link between their two switches otherwise; a host's attachment,
// its edge to its HostSwitch, gets a host port on the physical switch
// of that logical switch. The kind of cable follows from the edge and
// the partition, so the plan keeps only the cable's index in its kind's
// list of the cabling, and every port mapping is read off that cable.
type Plan struct {
	Topo    *topology.Graph
	Cabling *Cabling
	Parts   *partition.Result

	// PartToSwitch maps partition parts to physical switch indices.
	PartToSwitch []int

	// cable[e] is the index of the cable that realises logical edge e
	// in the list kindOf names, or −1 for an edge that takes no cable:
	// a host's second link, or a link between hosts.
	cable []int32
}

// cableKind names the list of a cabling that a cable index points into.
type cableKind uint8

const (
	selfCable cableKind = iota
	interCable
	hostCable
)

func (k cableKind) String() string {
	return [...]string{"self-link", "inter-link", "host port"}[k]
}

// CrossbarOf returns the physical switch index hosting logical switch v
// — the crossbar its sub-switch shares with co-projected sub-switches.
func (p *Plan) CrossbarOf(v int) int {
	return p.PartToSwitch[p.Parts.Assign[v]]
}

// kindOf returns the kind of cable that realises logical edge e, if it
// takes one: a self-link or an inter-link for a switch–switch edge, by
// where the partition puts its ends, and a host port otherwise.
func (p *Plan) kindOf(e topology.Edge) cableKind {
	switch {
	case !p.Topo.IsSwitchSwitch(e):
		return hostCable
	case p.CrossbarOf(e.A) == p.CrossbarOf(e.B):
		return selfCable
	}
	return interCable
}

// attachment returns host h's attachment, its edge to its HostSwitch,
// or −1 when h is not a host on a switch.
func (p *Plan) attachment(h int) int {
	g := p.Topo
	if h < 0 || h >= len(g.Vertices) || g.Vertices[h].Kind != topology.Host {
		return -1
	}
	if sw := g.HostSwitch(h); sw >= 0 {
		return g.EdgeBetween(sw, h)
	}
	return -1
}

// slot numbers the cable of logical edge eid among all the cabling's
// cables: the self-links, then the inter-links, then the host ports. It
// is −1 for an edge without a cable.
func (p *Plan) slot(eid int) int {
	c := int(p.cable[eid])
	if c < 0 {
		return -1
	}
	switch p.kindOf(p.Topo.Edges[eid]) {
	case interCable:
		return len(p.Cabling.SelfLinks) + c
	case hostCable:
		return len(p.Cabling.SelfLinks) + len(p.Cabling.InterLinks) + c
	}
	return c
}

// portAt returns the physical port that carries one end of logical edge
// eid, its A end when aEnd is set: that end's port of the edge's cable.
// A host's end has none, its NIC being what the host port is wired to,
// and neither end of an edge without a cable has one.
func (p *Plan) portAt(eid int, aEnd bool) (PortRef, bool) {
	e := p.Topo.Edges[eid]
	v := e.B
	if aEnd {
		v = e.A
	}
	c := p.cable[eid]
	if c < 0 || p.Topo.Vertices[v].Kind != topology.Switch {
		return PortRef{}, false
	}
	switch p.kindOf(e) {
	case selfCable:
		sl := p.Cabling.SelfLinks[c]
		if aEnd {
			return PortRef{sl.Switch, sl.PortA}, true
		}
		return PortRef{sl.Switch, sl.PortB}, true
	case interCable:
		il := p.Cabling.InterLinks[c]
		if il.A.Switch != p.CrossbarOf(v) {
			return il.B, true
		}
		return il.A, true
	}
	return p.Cabling.HostPorts[c].Ref, true
}

// HostPort returns the physical port that host h's NIC plugs into.
func (p *Plan) HostPort(h int) (PortRef, bool) {
	if eid := p.attachment(h); eid >= 0 && p.cable[eid] >= 0 {
		return p.Cabling.HostPorts[p.cable[eid]].Ref, true
	}
	return PortRef{}, false
}

// EdgesClaimedBy returns, ascending, p's switch–switch edges whose
// self-link or inter-link the plan probe also claims. Both plans must
// be on one cabling.
func (p *Plan) EdgesClaimedBy(probe *Plan) []int {
	claimed := make([]bool, len(p.Cabling.SelfLinks)+len(p.Cabling.InterLinks)) // host ports' slots come after
	for eid := range probe.cable {
		if s := probe.slot(eid); s >= 0 && s < len(claimed) {
			claimed[s] = true
		}
	}
	var out []int
	for eid := range p.cable {
		if s := p.slot(eid); s >= 0 && s < len(claimed) && claimed[s] {
			out = append(out, eid)
		}
	}
	return out
}

// Project runs SDT Link Projection of g onto cab using a fresh
// allocation (the whole testbed dedicated to this topology).
func Project(g *topology.Graph, cab *Cabling, opt partition.Options) (*Plan, error) {
	return ProjectInto(g, cab, NewAllocation(cab), opt)
}

// ProjectInto runs Link Projection, drawing physical links from alloc
// so multiple topologies can share one cabling. It prefers the fewest
// physical switches, retrying with more parts when the cabling's
// reserved links for a smaller split are exhausted. On success the
// consumed links are marked used in alloc. The partition.Options
// argument has no fields and is ignored.
func ProjectInto(g *topology.Graph, cab *Cabling, alloc *Allocation, _ partition.Options) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("projection: invalid topology: %w", err)
	}
	var why reason
	ks, need := newSearch(cab.Switches), portsNeeded(g)
	for k := 1; k <= maxK(g, cab.Switches); k++ {
		if r, short := portShortfall(need, ks.top[k], k); short {
			why = r
			continue
		}
		md, r := ks.mapDemands(g, k)
		if md == nil {
			why = r
			continue
		}
		plan, r := projectMapped(g, cab, alloc, md)
		if plan == nil {
			why = r
			continue
		}
		return plan, nil
	}
	return nil, fmt.Errorf("projection: cannot project %q onto cabling: %s", g.Name, why.text(g, cab.Switches))
}

// projectMapped assigns physical links for one concrete part mapping,
// committing to alloc only on success.
//
// Each logical link takes the first cable of its kind and place, in
// cable order, that alloc does not hold and this call has not taken.
// The pickers find it with a cursor per list of alloc's cable index:
// alloc does not change during the call and a cable once taken stays
// taken, so every cable before a cursor is held or taken, and a picker
// resumes where it stopped instead of rescanning the cabling. The picks
// are written into the index's scratch and copied into the plan only
// once every link and host has its cable, so a mapping that runs out of
// cables allocates nothing.
//
// On failure it returns why. On success the plan owns its part-to-switch
// map: md's is the k-search's storage.
func projectMapped(g *topology.Graph, cab *Cabling, alloc *Allocation, md *mappedDemands) (*Plan, reason) {
	parts := md.parts
	partToSwitch := md.partToSwitch
	switchOf := func(v int) int { return partToSwitch[parts.Assign[v]] }

	// Stage the allocation in the cursors so failures leave alloc
	// untouched. Links are picked for the logical switch-switch edges
	// first (the LP step), then for the hosts.
	ix := &alloc.idx
	ix.rewind()
	ix.picked = slices.Grow(ix.picked[:0], len(g.Edges))[:len(g.Edges)]
	picked := ix.picked
	for i := range picked {
		picked[i] = -1
	}
	for _, e := range g.Edges {
		if !g.IsSwitchSwitch(e) {
			continue
		}
		sa, sb := switchOf(e.A), switchOf(e.B)
		l, used, why := ix.interList(sa, sb), alloc.interUsed, reason{kind: noInterLink, sw: sa, sw2: sb, at: e.ID}
		if sa == sb {
			l, used, why = ix.selfList(sa), alloc.selfUsed, reason{kind: noSelfLink, sw: sa, at: e.ID}
		}
		idx, ok := ix.next(l, used)
		if !ok {
			return nil, why
		}
		picked[e.ID] = int32(idx)
	}
	for _, h := range g.Hosts() {
		sw := g.HostSwitch(h)
		if sw < 0 {
			continue
		}
		s := switchOf(sw)
		idx, ok := ix.next(ix.hostList(s), alloc.hostUsed)
		if !ok {
			return nil, reason{kind: noHostPort, sw: s, at: h}
		}
		picked[g.EdgeBetween(sw, h)] = int32(idx)
	}

	ix.commit(alloc)
	return &Plan{
		Topo:         g,
		Cabling:      cab,
		Parts:        parts,
		PartToSwitch: slices.Clone(partToSwitch),
		cable:        slices.Clone(picked),
	}, reason{}
}

// book marks every cable of the plan used, or free, in alloc.
func (p *Plan) book(alloc *Allocation, used bool) {
	for eid := range p.cable {
		if s := p.slot(eid); s >= 0 {
			alloc.used[s] = used
		}
	}
}

// Release returns the plan's physical links to the allocation (topology
// teardown during reconfiguration).
func (p *Plan) Release(alloc *Allocation) { p.book(alloc, false) }

// Acquire marks the plan's physical links and host ports used in alloc
// — the exact inverse of Release, used to restore a previously released
// deployment during reconfiguration rollback. It fails without mutating
// alloc if any of the plan's resources is already booked, so a rollback
// can never double-book ports; the error names the booked resource of
// the lowest switch–switch edge ID, else of the lowest host ID.
func (p *Plan) Acquire(alloc *Allocation) error {
	g := p.Topo
	for eid, c := range p.cable {
		if e := g.Edges[eid]; g.IsSwitchSwitch(e) && c >= 0 && alloc.used[p.slot(eid)] {
			return fmt.Errorf("projection: %s: %v %d (edge %d) already in use", g.Name, p.kindOf(e), c, eid)
		}
	}
	for _, h := range g.Hosts() {
		if eid := p.attachment(h); eid >= 0 && p.cable[eid] >= 0 && alloc.used[p.slot(eid)] {
			return fmt.Errorf("projection: %s: host port %v (host %d) already in use", g.Name, p.Cabling.HostPorts[p.cable[eid]].Ref, h)
		}
	}
	p.book(alloc, true)
	return nil
}

// UsedCounts reports how many self-links, inter-links, and host ports
// the allocation currently has booked — the leak/double-book invariant
// the reconfiguration fuzzer checks against the resident plan.
func (a *Allocation) UsedCounts() (self, inter, host int) {
	count := func(used []bool) (n int) {
		for _, u := range used {
			if u {
				n++
			}
		}
		return n
	}
	return count(a.selfUsed), count(a.interUsed), count(a.hostUsed)
}

// Check verifies the plan against its topology, partition and cabling:
// every switch–switch edge and every host's attachment has a cable in
// range of its kind's list — a self-link on the physical switch hosting
// both ends, an inter-link between the two switches hosting them, a
// host port on the switch hosting the host's switch — no other edge has
// one, and no cable realises two edges. On a valid cabling, where each
// physical port is on one cable, no physical port then carries two
// logical ones. It names the lowest edge at fault: one whose cable is
// missing, out of range, in the wrong place, or an earlier edge's. This
// is the Topology Customization module's checking function (§V-1)
// applied to the plan output.
func (p *Plan) Check() error {
	g, cab := p.Topo, p.Cabling
	if len(p.cable) != len(g.Edges) {
		return fmt.Errorf("projection: %s: plan has cables for %d edges, topology %d", g.Name, len(p.cable), len(g.Edges))
	}
	lists := [...]int{selfCable: len(cab.SelfLinks), interCable: len(cab.InterLinks), hostCable: len(cab.HostPorts)}
	owner := make([]int32, lists[selfCable]+lists[interCable]+lists[hostCable]) // by slot: 1 + the edge the cable realises
	for eid, c := range p.cable {
		e := g.Edges[eid]
		if !g.IsSwitchSwitch(e) && p.attachment(e.A) != eid && p.attachment(e.B) != eid {
			if c != -1 {
				return p.fault(eid, "takes no cable but has %d", c)
			}
			continue
		}
		k := p.kindOf(e)
		switch {
		case c == -1:
			return p.fault(eid, "not realised")
		case c < 0 || int(c) >= lists[k]:
			return p.fault(eid, "%v %d out of range (%d)", k, c, lists[k])
		}
		var ca, cb int // the physical switches the cable joins
		switch k {
		case selfCable:
			ca, cb = cab.SelfLinks[c].Switch, cab.SelfLinks[c].Switch
		case interCable:
			ca, cb = cab.InterLinks[c].A.Switch, cab.InterLinks[c].B.Switch
		case hostCable:
			ca, cb = cab.HostPorts[c].Ref.Switch, cab.HostPorts[c].Ref.Switch
		}
		// A host's part is its switch's (partition.Result.Assign).
		if sa, sb := p.CrossbarOf(e.A), p.CrossbarOf(e.B); !(ca == sa && cb == sb) && !(ca == sb && cb == sa) {
			return p.fault(eid, "%v %d joins switches %d and %d, its ends are on %d and %d", k, c, ca, cb, sa, sb)
		}
		o := &owner[p.slot(eid)]
		if *o != 0 {
			return p.fault(eid, "%v %d also realises edge %d", k, c, *o-1)
		}
		*o = int32(eid) + 1
	}
	return nil
}

// fault is Check's error for logical edge eid.
func (p *Plan) fault(eid int, format string, args ...any) error {
	return fmt.Errorf("projection: %s: edge %d: %s", p.Topo.Name, eid, fmt.Sprintf(format, args...))
}

// CableAt returns the physical port at the other end of the self-link
// or inter-link plugged into ref. It reports false for a host port,
// whose far end is a NIC, and for a port no cable uses.
func (p *Plan) CableAt(ref PortRef) (PortRef, bool) {
	for _, sl := range p.Cabling.SelfLinks {
		if sl.Switch == ref.Switch && sl.PortA == ref.Port {
			return PortRef{sl.Switch, sl.PortB}, true
		}
		if sl.Switch == ref.Switch && sl.PortB == ref.Port {
			return PortRef{sl.Switch, sl.PortA}, true
		}
	}
	for _, il := range p.Cabling.InterLinks {
		if il.A == ref {
			return il.B, true
		}
		if il.B == ref {
			return il.A, true
		}
	}
	return PortRef{}, false
}

// Stats summarises a plan for reports and Table II.
type PlanStats struct {
	PhysicalSwitches int
	SelfLinks        int
	InterLinks       int
	Hosts            int
}

// Stats computes the plan summary.
func (p *Plan) Stats() PlanStats {
	used := map[int]bool{}
	for _, s := range p.PartToSwitch {
		used[s] = true
	}
	st := PlanStats{PhysicalSwitches: len(used)}
	for eid, c := range p.cable {
		if c < 0 {
			continue
		}
		switch p.kindOf(p.Topo.Edges[eid]) {
		case selfCable:
			st.SelfLinks++
		case interCable:
			st.InterLinks++
		default:
			st.Hosts++
		}
	}
	return st
}
