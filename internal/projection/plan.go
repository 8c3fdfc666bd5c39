package projection

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/partition"
	"repro/internal/topology"
)

// Allocation tracks which physical links and ports of a cabling are in
// use, so several logical topologies can be co-hosted on one testbed
// (the hardware-isolation scenario of §VI-B). It also indexes the
// cabling's cables by where they run, once, for the link pickers and
// for Release and Acquire. The index lives here rather than on the
// Cabling, a plain value type: an allocation's cabling is fixed for its
// life.
type Allocation struct {
	cab       *Cabling
	selfUsed  []bool
	interUsed []bool
	hostUsed  []bool
	idx       cableIndex
}

// NewAllocation returns an empty allocation over cab.
func NewAllocation(cab *Cabling) *Allocation {
	return &Allocation{
		cab:       cab,
		selfUsed:  make([]bool, len(cab.SelfLinks)),
		interUsed: make([]bool, len(cab.InterLinks)),
		hostUsed:  make([]bool, len(cab.HostPorts)),
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
// switch, is in no list. hostAt finds a host port by its port:
// hostAt[portBase[s]+port−1] is the index of the host port at that port
// of switch s, or −1.
//
// cursor and picked are projectMapped's scratch: one position per
// list, and the cable index chosen for each logical link and host.
type cableIndex struct {
	n        int
	start    []int32
	at       []int32
	portBase []int32
	hostAt   []int32
	cursor   []int32
	picked   []int32
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

	ix.portBase = make([]int32, n+1)
	for _, hp := range cab.HostPorts {
		if r := hp.Ref; inRange(r.Switch) && r.Port > int(ix.portBase[r.Switch+1]) {
			ix.portBase[r.Switch+1] = int32(r.Port)
		}
	}
	for s := 0; s < n; s++ {
		ix.portBase[s+1] += ix.portBase[s]
	}
	ix.hostAt = make([]int32, ix.portBase[n])
	for i := range ix.hostAt {
		ix.hostAt[i] = -1
	}
	for i, hp := range cab.HostPorts {
		if at, ok := ix.hostSlot(hp.Ref); ok && ix.hostAt[at] < 0 {
			ix.hostAt[at] = int32(i)
		}
	}
	return ix
}

// hostSlot returns ref's slot in hostAt, if it has one.
func (ix *cableIndex) hostSlot(ref PortRef) (int, bool) {
	if ref.Switch < 0 || ref.Switch >= ix.n || ref.Port < 1 {
		return 0, false
	}
	at := int(ix.portBase[ref.Switch]) + ref.Port - 1
	return at, at < int(ix.portBase[ref.Switch+1])
}

// hostPort returns the index of the host port at ref, if there is one.
func (ix *cableIndex) hostPort(ref PortRef) (int, bool) {
	at, ok := ix.hostSlot(ref)
	if !ok || ix.hostAt[at] < 0 {
		return 0, false
	}
	return int(ix.hostAt[at]), true
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

// PortKey names a logical port: vertex ID and 1-based port number.
type PortKey struct {
	Vertex int
	Port   int
}

// Plan is the result of projecting one logical topology onto a cabling:
// the complete logical-to-physical port mapping.
type Plan struct {
	Topo    *topology.Graph
	Cabling *Cabling
	Parts   *partition.Result

	// PartToSwitch maps partition parts to physical switch indices.
	PartToSwitch []int
	// Ports maps every logical switch port to its physical port.
	Ports map[PortKey]PortRef
	// HostAttach maps each host vertex to the physical port its NIC
	// plugs into.
	HostAttach map[int]PortRef
	// EdgeLink records, per logical switch-switch edge ID, the physical
	// realisation: either a self-link or an inter-link.
	EdgeLink map[int]PhysLink

	SelfUsed, InterUsed int
}

// PhysLink is the physical realisation of one logical link.
type PhysLink struct {
	SelfLink  int // index into Cabling.SelfLinks, or -1
	InterLink int // index into Cabling.InterLinks, or -1
}

// CrossbarOf returns the physical switch index hosting logical switch v
// — the crossbar its sub-switch shares with co-projected sub-switches.
func (p *Plan) CrossbarOf(v int) int {
	return p.PartToSwitch[p.Parts.Assign[v]]
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
// resumes where it stopped instead of rescanning the cabling. Every
// link and host is given its cable before the plan is built, so a
// mapping that runs out of cables allocates nothing.
//
// On failure it returns why. On success the plan owns its part-to-switch
// map: md's is the k-search's storage.
func projectMapped(g *topology.Graph, cab *Cabling, alloc *Allocation, md *mappedDemands) (*Plan, reason) {
	parts := md.parts
	partToSwitch := md.partToSwitch
	switchOf := func(v int) int { return partToSwitch[parts.Assign[v]] }
	links, hosts := g.NumSwitchSwitchEdges(), g.NumHosts()

	// Stage the allocation in the cursors so failures leave alloc
	// untouched. Links are picked for the logical switch-switch edges
	// first (the LP step), then for the hosts, in the order the plan
	// is built below.
	ix := &alloc.idx
	ix.rewind()
	ix.picked = slices.Grow(ix.picked[:0], links+hosts)
	picked := ix.picked
	for _, e := range g.Edges {
		if !g.IsSwitchSwitch(e) {
			continue
		}
		sa, sb := switchOf(e.A), switchOf(e.B)
		if sa == sb {
			idx, ok := ix.next(ix.selfList(sa), alloc.selfUsed)
			if !ok {
				return nil, reason{kind: noSelfLink, sw: sa, at: e.ID}
			}
			picked = append(picked, int32(idx))
		} else {
			idx, ok := ix.next(ix.interList(sa, sb), alloc.interUsed)
			if !ok {
				return nil, reason{kind: noInterLink, sw: sa, sw2: sb, at: e.ID}
			}
			picked = append(picked, int32(idx))
		}
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
		picked = append(picked, int32(idx))
	}

	plan := &Plan{
		Topo:       g,
		Cabling:    cab,
		Parts:      parts,
		Ports:      make(map[PortKey]PortRef, 2*links+hosts),
		HostAttach: make(map[int]PortRef, hosts),
		EdgeLink:   make(map[int]PhysLink, links),
	}
	for _, e := range g.Edges {
		if !g.IsSwitchSwitch(e) {
			continue
		}
		idx := int(picked[0])
		picked = picked[1:]
		sa := switchOf(e.A)
		if sa == switchOf(e.B) {
			sl := cab.SelfLinks[idx]
			plan.Ports[PortKey{e.A, e.APort}] = PortRef{sa, sl.PortA}
			plan.Ports[PortKey{e.B, e.BPort}] = PortRef{sa, sl.PortB}
			plan.EdgeLink[e.ID] = PhysLink{SelfLink: idx, InterLink: -1}
			plan.SelfUsed++
		} else {
			il := cab.InterLinks[idx]
			refA, refB := il.A, il.B
			if refA.Switch != sa {
				refA, refB = refB, refA
			}
			plan.Ports[PortKey{e.A, e.APort}] = refA
			plan.Ports[PortKey{e.B, e.BPort}] = refB
			plan.EdgeLink[e.ID] = PhysLink{SelfLink: -1, InterLink: idx}
			plan.InterUsed++
		}
	}
	for _, h := range g.Hosts() {
		sw := g.HostSwitch(h)
		if sw < 0 {
			continue
		}
		ref := cab.HostPorts[picked[0]].Ref
		picked = picked[1:]
		plan.HostAttach[h] = ref
		eid := g.EdgeBetween(sw, h)
		plan.Ports[PortKey{sw, g.Edges[eid].PortAt(sw)}] = ref
	}

	ix.commit(alloc)
	plan.PartToSwitch = slices.Clone(partToSwitch)
	return plan, reason{}
}

// Release returns the plan's physical links to the allocation (topology
// teardown during reconfiguration).
func (p *Plan) Release(alloc *Allocation) {
	for _, pl := range p.EdgeLink {
		if pl.SelfLink >= 0 {
			alloc.selfUsed[pl.SelfLink] = false
		}
		if pl.InterLink >= 0 {
			alloc.interUsed[pl.InterLink] = false
		}
	}
	for _, ref := range p.HostAttach {
		if i, ok := alloc.idx.hostPort(ref); ok {
			alloc.hostUsed[i] = false
		}
	}
}

// Acquire marks the plan's physical links and host ports used in alloc
// — the exact inverse of Release, used to restore a previously released
// deployment during reconfiguration rollback. It fails without mutating
// alloc if any of the plan's resources is already booked, so a rollback
// can never double-book ports; the error names the booked resource of
// the lowest edge ID, else of the lowest host ID, whatever the map
// order.
func (p *Plan) Acquire(alloc *Allocation) error {
	edges := slices.Sorted(maps.Keys(p.EdgeLink))
	hosts := slices.Sorted(maps.Keys(p.HostAttach))
	for _, eid := range edges {
		pl := p.EdgeLink[eid]
		if pl.SelfLink >= 0 && alloc.selfUsed[pl.SelfLink] {
			return fmt.Errorf("projection: %s: self-link %d (edge %d) already in use", p.Topo.Name, pl.SelfLink, eid)
		}
		if pl.InterLink >= 0 && alloc.interUsed[pl.InterLink] {
			return fmt.Errorf("projection: %s: inter-link %d (edge %d) already in use", p.Topo.Name, pl.InterLink, eid)
		}
	}
	for _, h := range hosts {
		ref := p.HostAttach[h]
		if i, ok := alloc.idx.hostPort(ref); ok && alloc.hostUsed[i] {
			return fmt.Errorf("projection: %s: host port %v (host %d) already in use", p.Topo.Name, ref, h)
		}
	}
	for _, pl := range p.EdgeLink {
		if pl.SelfLink >= 0 {
			alloc.selfUsed[pl.SelfLink] = true
		}
		if pl.InterLink >= 0 {
			alloc.interUsed[pl.InterLink] = true
		}
	}
	for _, ref := range p.HostAttach {
		if i, ok := alloc.idx.hostPort(ref); ok {
			alloc.hostUsed[i] = true
		}
	}
	return nil
}

// UsedCounts reports how many self-links, inter-links, and host ports
// the allocation currently has booked — the leak/double-book invariant
// the reconfiguration fuzzer checks against the resident plan.
func (a *Allocation) UsedCounts() (self, inter, host int) {
	for _, u := range a.selfUsed {
		if u {
			self++
		}
	}
	for _, u := range a.interUsed {
		if u {
			inter++
		}
	}
	for _, u := range a.hostUsed {
		if u {
			host++
		}
	}
	return self, inter, host
}

// Check verifies the plan's internal consistency: every logical
// switch-switch edge is realised by a physical cable whose two ports
// map back to the edge's two logical ports, and no physical port is
// used twice. This is the Topology Customization module's checking
// function (§V-1) applied to the plan output.
func (p *Plan) Check() error {
	g := p.Topo
	seen := map[PortRef]PortKey{}
	for key, ref := range p.Ports {
		if prev, dup := seen[ref]; dup {
			return fmt.Errorf("projection: physical port %v mapped to both %v and %v", ref, prev, key)
		}
		seen[ref] = key
	}
	for _, e := range g.Edges {
		if !g.IsSwitchSwitch(e) {
			continue
		}
		eid := e.ID
		pl, ok := p.EdgeLink[eid]
		if !ok {
			return fmt.Errorf("projection: edge %d not realised", eid)
		}
		ra, okA := p.Ports[PortKey{e.A, e.APort}]
		rb, okB := p.Ports[PortKey{e.B, e.BPort}]
		if !okA || !okB {
			return fmt.Errorf("projection: edge %d missing port mapping", eid)
		}
		var pa, pb PortRef
		if pl.SelfLink >= 0 {
			sl := p.Cabling.SelfLinks[pl.SelfLink]
			pa, pb = PortRef{sl.Switch, sl.PortA}, PortRef{sl.Switch, sl.PortB}
		} else {
			il := p.Cabling.InterLinks[pl.InterLink]
			pa, pb = il.A, il.B
		}
		if !((ra == pa && rb == pb) || (ra == pb && rb == pa)) {
			return fmt.Errorf("projection: edge %d maps to %v/%v but cable is %v/%v", eid, ra, rb, pa, pb)
		}
	}
	for h, ref := range p.HostAttach {
		sw := g.HostSwitch(h)
		if sw < 0 {
			return fmt.Errorf("projection: host %d unattached in topology", h)
		}
		if p.CrossbarOf(sw) != ref.Switch {
			return fmt.Errorf("projection: host %d on switch %d but its logical switch is on %d",
				h, ref.Switch, p.CrossbarOf(sw))
		}
	}
	return nil
}

// CableAt returns the physical port at the far end of the cable plugged
// into ref, distinguishing self-links, inter-links and host ports.
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
	return PlanStats{
		PhysicalSwitches: len(used),
		SelfLinks:        p.SelfUsed,
		InterLinks:       p.InterUsed,
		Hosts:            len(p.HostAttach),
	}
}
