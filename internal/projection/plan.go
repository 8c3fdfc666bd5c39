package projection

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/topology"
)

// Allocation tracks which physical links and ports of a cabling are in
// use, so several logical topologies can be co-hosted on one testbed
// (the hardware-isolation scenario of §VI-B).
type Allocation struct {
	cab       *Cabling
	selfUsed  []bool
	interUsed []bool
	hostUsed  []bool
}

// NewAllocation returns an empty allocation over cab.
func NewAllocation(cab *Cabling) *Allocation {
	return &Allocation{
		cab:       cab,
		selfUsed:  make([]bool, len(cab.SelfLinks)),
		interUsed: make([]bool, len(cab.InterLinks)),
		hostUsed:  make([]bool, len(cab.HostPorts)),
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

// SubSwitchPorts returns the physical ports grouped into the sub-switch
// of logical switch v (host-facing ports included), sorted.
func (p *Plan) SubSwitchPorts(v int) []PortRef {
	var out []PortRef
	for key, ref := range p.Ports {
		if key.Vertex == v {
			out = append(out, ref)
		}
	}
	sortPortRefs(out)
	return out
}

func sortPortRefs(s []PortRef) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Switch < s[j-1].Switch || (s[j].Switch == s[j-1].Switch && s[j].Port < s[j-1].Port)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
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
// consumed links are marked used in alloc.
func ProjectInto(g *topology.Graph, cab *Cabling, alloc *Allocation, opt partition.Options) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("projection: invalid topology: %w", err)
	}
	var lastErr error
	for k := 1; k <= maxK(g, cab.Switches); k++ {
		if err := portShortfall(g, cab.Switches, k); err != nil {
			lastErr = err
			continue
		}
		md, err := mapDemands(g, cab.Switches, k, opt)
		if err != nil {
			lastErr = err
			continue
		}
		plan, err := projectMapped(g, cab, alloc, md)
		if err != nil {
			lastErr = err
			continue
		}
		return plan, nil
	}
	return nil, fmt.Errorf("projection: cannot project %q onto cabling: %v", g.Name, lastErr)
}

// projectMapped assigns physical links for one concrete part mapping,
// committing to alloc only on success.
func projectMapped(g *topology.Graph, cab *Cabling, alloc *Allocation, md *mappedDemands) (*Plan, error) {
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
		for _, i := range cab.selfOn(s) {
			if !alloc.selfUsed[i] && !selfTaken[i] {
				selfTaken[i] = true
				return i, true
			}
		}
		return 0, false
	}
	nextInter := func(s1, s2 int) (int, bool) {
		for _, i := range cab.interBetween(s1, s2) {
			if !alloc.interUsed[i] && !interTaken[i] {
				interTaken[i] = true
				return i, true
			}
		}
		return 0, false
	}
	nextHost := func(s int) (int, bool) {
		for _, i := range cab.hostPortsOn(s) {
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
	for h := range p.HostAttach {
		ref := p.HostAttach[h]
		for i, hp := range p.Cabling.HostPorts {
			if hp.Ref == ref {
				alloc.hostUsed[i] = false
			}
		}
	}
}

// Acquire marks the plan's physical links and host ports used in alloc
// — the exact inverse of Release, used to restore a previously released
// deployment during reconfiguration rollback. It fails without mutating
// alloc if any of the plan's resources is already booked, so a rollback
// can never double-book ports.
func (p *Plan) Acquire(alloc *Allocation) error {
	var selfIdx, interIdx, hostIdx []int
	for eid, pl := range p.EdgeLink {
		if pl.SelfLink >= 0 {
			if alloc.selfUsed[pl.SelfLink] {
				return fmt.Errorf("projection: %s: self-link %d (edge %d) already in use", p.Topo.Name, pl.SelfLink, eid)
			}
			selfIdx = append(selfIdx, pl.SelfLink)
		}
		if pl.InterLink >= 0 {
			if alloc.interUsed[pl.InterLink] {
				return fmt.Errorf("projection: %s: inter-link %d (edge %d) already in use", p.Topo.Name, pl.InterLink, eid)
			}
			interIdx = append(interIdx, pl.InterLink)
		}
	}
	for h, ref := range p.HostAttach {
		for i, hp := range p.Cabling.HostPorts {
			if hp.Ref == ref {
				if alloc.hostUsed[i] {
					return fmt.Errorf("projection: %s: host port %v (host %d) already in use", p.Topo.Name, ref, h)
				}
				hostIdx = append(hostIdx, i)
			}
		}
	}
	for _, i := range selfIdx {
		alloc.selfUsed[i] = true
	}
	for _, i := range interIdx {
		alloc.interUsed[i] = true
	}
	for _, i := range hostIdx {
		alloc.hostUsed[i] = true
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
	for _, eid := range g.SwitchSwitchEdges() {
		e := g.Edges[eid]
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
