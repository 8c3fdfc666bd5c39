package projection

import (
	"fmt"

	"repro/internal/openflow"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Encoding selects how sub-switch identity is expressed in flow tables.
type Encoding int

const (
	// TagEncoded carries (sub-switch, VC) in the packet tag, rewritten
	// at every hop. One entry per routing rule plus injection entries —
	// the merged scheme that yields the paper's ~300 entries per switch
	// for a k=4 fat-tree on two switches (§VII-C).
	TagEncoded Encoding = iota
	// PerInPort matches the physical ingress port to identify the
	// sub-switch, expanding wildcard-ingress rules over every port of
	// the sub-switch — the unmerged baseline scheme of §III-B.
	PerInPort
)

// CompileOptions tunes flow-table synthesis.
type CompileOptions struct {
	Encoding Encoding
	// Cookie groups this topology's entries for later removal
	// (reconfiguration tears down by cookie).
	Cookie uint64
	// TagBase offsets encoded tags so co-hosted topologies never share
	// tag space (hardware isolation). Ignored by PerInPort.
	TagBase int
	// Into, when non-nil, installs into existing switch objects (one
	// per cabling switch) instead of fresh ones — used when several
	// topologies share the testbed.
	Into []*openflow.Switch
}

// TagSpace returns the number of tag values a plan consumes under
// TagEncoded — the next topology's TagBase should advance by this.
// (+1 because tag 0 is reserved for untagged host traffic.)
func TagSpace(p *Plan, r *routing.Routes) int {
	return p.Topo.NumSwitches()*max(r.NumVCs, 1) + 1
}

// CompileFlowTables converts a route set into flow entries on the
// physical switches according to the plan's port mapping. The returned
// slice has one switch per cabling switch (indices align).
func CompileFlowTables(p *Plan, r *routing.Routes, opt CompileOptions) ([]*openflow.Switch, error) {
	g := p.Topo
	if r.Topo != g {
		return nil, fmt.Errorf("projection: routes computed for %q, plan for %q", r.Topo.Name, g.Name)
	}
	switches := opt.Into
	if switches == nil {
		switches = make([]*openflow.Switch, len(p.Cabling.Switches))
		for i, spec := range p.Cabling.Switches {
			switches[i] = openflow.NewSwitch(spec.ID, spec.Ports, spec.TableCap)
		}
	} else if len(switches) != len(p.Cabling.Switches) {
		return nil, fmt.Errorf("projection: Into has %d switches, cabling has %d", len(switches), len(p.Cabling.Switches))
	}

	vcs := max(r.NumVCs, 1)
	subIdx := make([]int, len(g.Vertices)) // logical switch -> index among switches
	for i, s := range g.Switches() {
		subIdx[s] = i
	}
	// Tag 0 is reserved for untagged host traffic, so encoded values
	// start at TagBase+1.
	enc := func(logicalSwitch, vc int) int {
		return opt.TagBase + 1 + subIdx[logicalSwitch]*vcs + vc
	}
	physPort := func(v, logicalPort int) (PortRef, error) {
		ref, ok := p.Ports[PortKey{v, logicalPort}]
		if !ok {
			return PortRef{}, fmt.Errorf("projection: no physical port for logical %d.%d", v, logicalPort)
		}
		return ref, nil
	}
	csr := g.CSR()
	// outInfo resolves a rule's egress: physical port, whether it leads
	// to a host, and the logical switch at the far end otherwise.
	outInfo := func(rule routing.Rule) (ref PortRef, toHost bool, peer int, err error) {
		ref, err = physPort(rule.Switch, rule.OutPort)
		if err != nil {
			return
		}
		eid := csr.EdgeAt(rule.Switch, rule.OutPort)
		if eid < 0 {
			return ref, false, 0, fmt.Errorf("projection: rule egress port %d.%d dangling", rule.Switch, rule.OutPort)
		}
		o := g.Edges[eid].Other(rule.Switch)
		if g.Vertices[o].Kind == topology.Host {
			return ref, true, 0, nil
		}
		return ref, false, o, nil
	}

	// Each switch's entries are collected in emission order and
	// installed with one merge (Table.Install) at the end. An entry that
	// would overflow its table fails where one Add per entry would: what
	// was emitted before it is installed first, then Add reports the
	// same *ErrTableFull, so Deploy's roll-back starts from the same
	// tables.
	pending := make([][]*openflow.FlowEntry, len(switches))
	flush := func() error {
		for i, es := range pending {
			if err := switches[i].Table.Install(es); err != nil {
				return err
			}
			pending[i] = nil
		}
		return nil
	}
	var slab entrySlab
	add := func(sw int, e openflow.FlowEntry) error {
		e.Cookie = opt.Cookie
		t := &switches[sw].Table
		if t.Capacity > 0 && t.Len()+len(pending[sw]) >= t.Capacity {
			if err := flush(); err != nil {
				return err
			}
			return t.Add(e)
		}
		pending[sw] = append(pending[sw], slab.entry(e))
		return nil
	}

	for _, rule := range r.Rules {
		ref, toHost, peer, err := outInfo(rule)
		if err != nil {
			return nil, err
		}
		outVC := func(inVC int) int {
			if rule.NewTag >= 0 {
				return rule.NewTag
			}
			return inVC
		}
		switch opt.Encoding {
		case TagEncoded:
			vcLo, vcHi := 0, vcs // a wildcard rule covers every VC
			if rule.Tag != openflow.Any {
				vcLo, vcHi = rule.Tag, rule.Tag+1
			}
			for vc := vcLo; vc < vcHi; vc++ {
				m := openflow.Match{
					InPort:  0,
					SrcHost: openflow.Any,
					DstHost: rule.Dst,
					Tag:     enc(rule.Switch, vc),
				}
				prio := 10
				if rule.InPort != 0 {
					inRef, err := physPort(rule.Switch, rule.InPort)
					if err != nil {
						return nil, err
					}
					m.InPort = inRef.Port
					prio += 4
				}
				var actions []openflow.Action
				if toHost {
					actions = slab.actions(openflow.Action{Type: openflow.SetTag, Tag: 0}, openflow.Action{Type: openflow.Output, Port: ref.Port})
				} else {
					actions = slab.actions(
						openflow.Action{Type: openflow.SetTag, Tag: enc(peer, outVC(vc))},
						openflow.Action{Type: openflow.Output, Port: ref.Port},
					)
				}
				if err := add(ref.Switch, openflow.FlowEntry{Priority: prio, Match: m, Actions: actions}); err != nil {
					return nil, err
				}
			}
		case PerInPort:
			var inPorts []PortRef
			if rule.InPort != 0 {
				inRef, err := physPort(rule.Switch, rule.InPort)
				if err != nil {
					return nil, err
				}
				inPorts = []PortRef{inRef}
			} else {
				inPorts = p.SubSwitchPorts(rule.Switch)
			}
			for _, inRef := range inPorts {
				if inRef == ref {
					continue // never hairpin back out the ingress port
				}
				m := openflow.Match{
					InPort:  inRef.Port,
					SrcHost: openflow.Any,
					DstHost: rule.Dst,
					Tag:     rule.Tag,
				}
				prio := 10
				if rule.InPort != 0 {
					prio += 4
				}
				if rule.Tag != openflow.Any {
					prio += 2
				}
				var buf [3]openflow.Action
				actions := buf[:0]
				if rule.NewTag >= 0 {
					actions = append(actions, openflow.Action{Type: openflow.SetTag, Tag: rule.NewTag})
				}
				if toHost {
					actions = append(actions, openflow.Action{Type: openflow.SetTag, Tag: 0})
				}
				actions = append(actions, openflow.Action{Type: openflow.Output, Port: ref.Port})
				if err := add(ref.Switch, openflow.FlowEntry{Priority: prio, Match: m, Actions: slab.actions(actions...)}); err != nil {
					return nil, err
				}
			}
		}
	}

	if opt.Encoding == TagEncoded {
		// Injection entries: untagged packets from host NIC ports are
		// classified into their sub-switch's tag space and forwarded by
		// the source switch's rule for VC 0.
		for _, h := range g.Hosts() {
			sw := g.HostSwitch(h)
			if sw < 0 {
				continue
			}
			attach := p.HostAttach[h]
			hostEdge := g.EdgeBetween(sw, h)
			logicalIn := g.Edges[hostEdge].PortAt(sw)
			for _, dst := range g.Hosts() {
				if dst == h {
					continue
				}
				rule := r.Lookup(sw, logicalIn, dst, 0)
				if rule == nil {
					return nil, fmt.Errorf("projection: no injection route %d->%d at switch %d", h, dst, sw)
				}
				ref, toHost, peer, err := outInfo(*rule)
				if err != nil {
					return nil, err
				}
				vcOut := 0
				if rule.NewTag >= 0 {
					vcOut = rule.NewTag
				}
				var actions []openflow.Action
				if toHost {
					actions = slab.actions(openflow.Action{Type: openflow.Output, Port: ref.Port})
				} else {
					actions = slab.actions(
						openflow.Action{Type: openflow.SetTag, Tag: enc(peer, vcOut)},
						openflow.Action{Type: openflow.Output, Port: ref.Port},
					)
				}
				err = add(attach.Switch, openflow.FlowEntry{
					Priority: 20,
					Match: openflow.Match{
						InPort:  attach.Port,
						SrcHost: openflow.Any,
						DstHost: dst,
						Tag:     0,
					},
					Actions: actions,
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return switches, nil
}

// entrySlab carves a compile's entries and action lists out of chunks
// instead of two allocations per entry. Chunks double from a small
// first one up to slabChunk entries (and twice as many actions), so a
// small compile allocates little, a large one leaves at most part of
// one chunk unused, and every chunk stays below the runtime's 32 KB
// large-object size. Every entry of a compile carries its cookie, so a
// teardown frees the chunks whole.
type entrySlab struct {
	entries []openflow.FlowEntry
	acts    []openflow.Action
}

const slabChunk = 256

// entry returns a pointer to a slab copy of e.
func (s *entrySlab) entry(e openflow.FlowEntry) *openflow.FlowEntry {
	if len(s.entries) == cap(s.entries) {
		s.entries = make([]openflow.FlowEntry, 0, min(slabChunk, max(16, 2*cap(s.entries))))
	}
	s.entries = append(s.entries, e)
	return &s.entries[len(s.entries)-1]
}

// actions returns a slab copy of a, capped so that an append to it
// cannot reach a neighbour's actions.
func (s *entrySlab) actions(a ...openflow.Action) []openflow.Action {
	if cap(s.acts)-len(s.acts) < len(a) {
		s.acts = make([]openflow.Action, 0, min(2*slabChunk, max(32, 2*cap(s.acts))))
	}
	lo := len(s.acts)
	s.acts = append(s.acts, a...)
	return s.acts[lo:len(s.acts):len(s.acts)]
}

// EntryCount sums installed entries across switches — the §VII-C
// resource metric.
func EntryCount(switches []*openflow.Switch) int {
	n := 0
	for _, s := range switches {
		if s != nil {
			n += s.Table.Len()
		}
	}
	return n
}
