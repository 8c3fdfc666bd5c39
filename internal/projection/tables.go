package projection

import (
	"cmp"
	"fmt"
	"slices"

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
// slice has one switch per cabling switch (indices align). A value that
// does not fit an entry's int32 fields (a tag, a host, a port) fails the
// compile; nothing is truncated.
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
	csr := g.CSR()
	// physPort resolves logical port logicalPort of switch v to the edge
	// there and the physical port of that end of its cable.
	physPort := func(v, logicalPort int) (int, PortRef, error) {
		if v >= 0 && v < len(g.Vertices) {
			if eid := csr.EdgeAt(v, logicalPort); eid >= 0 {
				e := g.Edges[eid]
				if ref, ok := p.portAt(eid, e.A == v && e.APort == logicalPort); ok {
					return eid, ref, nil
				}
			}
		}
		return -1, PortRef{}, fmt.Errorf("projection: no physical port for logical %d.%d", v, logicalPort)
	}
	// outInfo resolves a rule's egress: physical port, whether it leads
	// to a host, and the logical switch at the far end otherwise.
	outInfo := func(rule routing.Rule) (ref PortRef, toHost bool, peer int, err error) {
		eid, ref, err := physPort(rule.Switch, rule.OutPort)
		if err != nil {
			return
		}
		o := g.Edges[eid].Other(rule.Switch)
		if g.Vertices[o].Kind == topology.Host {
			return ref, true, 0, nil
		}
		return ref, false, o, nil
	}

	var sub portGroups // PerInPort: the ports a wildcard-ingress rule expands over
	if opt.Encoding == PerInPort {
		sub = groupPorts(p)
	}
	b := newEntryStore(p, r, opt, vcs, sub, switches)
	for _, rule := range r.Rules {
		ref, toHost, peer, err := outInfo(rule)
		if err != nil {
			return nil, err
		}
		prio := rulePrio(opt.Encoding, &rule)
		switch opt.Encoding {
		case TagEncoded:
			m := openflow.Match{SrcHost: openflow.Any, DstHost: b.i32(rule.Dst)}
			if rule.InPort != 0 {
				_, inRef, err := physPort(rule.Switch, rule.InPort)
				if err != nil {
					return nil, err
				}
				m.InPort = b.i32(inRef.Port)
			}
			vcLo, vcHi := 0, vcs // a wildcard rule covers every VC
			if rule.Tag != openflow.Any {
				vcLo, vcHi = rule.Tag, rule.Tag+1
			}
			for vc := vcLo; vc < vcHi; vc++ {
				m.Tag = b.i32(enc(rule.Switch, vc))
				tag := 0 // a packet leaves toward a host untagged
				if !toHost {
					outVC := vc
					if rule.NewTag >= 0 {
						outVC = rule.NewTag
					}
					tag = enc(peer, outVC)
				}
				if err := b.add(ref.Switch, prio, m, b.forward(true, tag, ref.Port)); err != nil {
					return nil, err
				}
			}
		case PerInPort:
			inPorts := sub.of(rule.Switch)
			if rule.InPort != 0 {
				_, inRef, err := physPort(rule.Switch, rule.InPort)
				if err != nil {
					return nil, err
				}
				inPorts = []PortRef{inRef}
			}
			var buf [3]openflow.Action
			actions := buf[:0]
			if rule.NewTag >= 0 {
				actions = append(actions, openflow.Action{Type: openflow.SetTag, Tag: b.i32(rule.NewTag)})
			}
			if toHost {
				actions = append(actions, openflow.Action{Type: openflow.SetTag, Tag: 0})
			}
			actions = append(actions, openflow.Action{Type: openflow.Output, Port: b.i32(ref.Port)})
			list := b.list(actions) // one list for every in-port's entry
			for _, inRef := range inPorts {
				if inRef == ref {
					continue // never hairpin back out the ingress port
				}
				m := openflow.Match{
					InPort:  b.i32(inRef.Port),
					SrcHost: openflow.Any,
					DstHost: b.i32(rule.Dst),
					Tag:     b.i32(rule.Tag),
				}
				if err := b.add(ref.Switch, prio, m, list); err != nil {
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
			attach, _ := p.HostPort(h)
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
				m := openflow.Match{InPort: b.i32(attach.Port), SrcHost: openflow.Any, DstHost: b.i32(dst), Tag: 0}
				tag := 0
				if !toHost {
					vcOut := 0
					if rule.NewTag >= 0 {
						vcOut = rule.NewTag
					}
					tag = enc(peer, vcOut)
				}
				if err := b.add(attach.Switch, prioInject, m, b.forward(!toHost, tag, ref.Port)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := b.install(); err != nil {
		return nil, err
	}
	return switches, nil
}

// The priorities CompileFlowTables gives entries: a rule's entries get
// rulePrio; TagEncoded's injection entries get prioInject, above them
// all.
const (
	prioRule   = 10
	prioInPort = 4
	prioTag    = 2
	prioInject = 20
)

// prioSlots is the number of priority classes a switch's entries are
// grouped in, one per even priority from prioInject down to prioRule;
// prioSlot(prio) is prio's class, highest priority first.
const prioSlots = (prioInject-prioRule)/2 + 1

func prioSlot(prio int) int { return (prioInject - prio) / 2 }

// rulePrio is the priority of a rule's entries under enc: prioRule,
// plus prioInPort when the rule names an ingress port and, under
// PerInPort, plus prioTag when it requires a tag.
func rulePrio(enc Encoding, rule *routing.Rule) int {
	prio := prioRule
	if rule.InPort != 0 {
		prio += prioInPort
	}
	if enc == PerInPort && rule.Tag != openflow.Any {
		prio += prioTag
	}
	return prio
}

// entryStore holds a compile's entries from emission to install. It
// is sized before the first entry is emitted, from a count of what the
// compile will emit per physical switch and priority class, so the
// entries, the action lists and the switches' batches come out of one
// allocation each, and a teardown (every entry carries the compile's
// cookie) frees them whole.
//
// An action list is stored once and shared by every entry that carries
// it, capped with a full slice expression so that nothing appends into
// a neighbour: under TagEncoded there is one list per (tag, physical
// port), found through listAt, and under PerInPort one per rule, shared
// by its in-port expansions.
//
// A switch's entries wait in batch, grouped by priority class, highest
// first, each class in emission order: that is match order, so
// Table.Install merges the batch without sorting it, and the table is
// the one that installing the entries in emission order gives. Bucket
// k = switch·prioSlots + class holds batch[at[k]:next[k]]. install
// hands each switch its own window of batch, which an empty table
// adopts as its array.
//
// The count places a rule's entries on the physical switch hosting its
// logical switch (Plan.CrossbarOf) and an injection entry on its host's
// attachment switch; every port of a sub-switch is on that switch, so
// the count is what the compile emits, but for the per-in-port entries
// it skips because they would hairpin on a port that is mapped twice.
// add checks every bucket's bound, so a plan that breaks this fails the
// compile instead of overrunning a neighbour's bucket.
type entryStore struct {
	switches []*openflow.Switch
	cookie   uint64
	entries  []openflow.FlowEntry // in emission order; cap is the count
	pool     []openflow.Action    // the distinct action lists, back to back; cap bounds them
	// listAt[slot·ports + port−1] is 1 + the pool offset of TagEncoded's
	// list for (slot, port), 0 before it is stored. Slot 0 is (Output
	// port), slot 1 (SetTag 0, Output port) and slot t−tagBase+1 (SetTag
	// t, Output port) for an encoded tag t.
	listAt   []int32
	tagBase  int
	ports    int // the highest port number of any switch
	batch    []*openflow.FlowEntry
	at, next []int
	queued   []int // per switch: entries waiting in batch
	err      error // the first value that does not fit an int32 field
}

// newEntryStore counts what CompileFlowTables will emit for (p, r,
// opt) and sizes a store for it.
func newEntryStore(p *Plan, r *routing.Routes, opt CompileOptions, vcs int, sub portGroups, switches []*openflow.Switch) *entryStore {
	g := p.Topo
	buckets := len(switches) * prioSlots
	ints := make([]int, 2*buckets+1+len(switches))
	at := ints[: buckets+1 : buckets+1] // first the count of bucket k at k+1
	for i := range r.Rules {
		rule := &r.Rules[i]
		if rule.Switch < 0 || rule.Switch >= len(g.Vertices) {
			continue // emission reports the rule
		}
		n := 1
		switch opt.Encoding {
		case TagEncoded:
			if rule.Tag == openflow.Any {
				n = vcs
			}
		case PerInPort:
			if rule.InPort == 0 {
				n = max(len(sub.of(rule.Switch))-1, 0) // every port but the egress
			} else if rule.InPort == rule.OutPort {
				n = 0
			}
		}
		at[p.CrossbarOf(rule.Switch)*prioSlots+prioSlot(rulePrio(opt.Encoding, rule))+1] += n
	}
	attached := 0
	if opt.Encoding == TagEncoded {
		hosts := g.Hosts()
		for _, h := range hosts {
			if ref, ok := p.HostPort(h); ok {
				at[ref.Switch*prioSlots+prioSlot(prioInject)+1] += len(hosts) - 1
				attached++
			}
		}
	}
	for k := range buckets {
		at[k+1] += at[k]
	}
	total := at[buckets]
	b := &entryStore{
		switches: switches,
		cookie:   opt.Cookie,
		entries:  make([]openflow.FlowEntry, 0, total),
		batch:    make([]*openflow.FlowEntry, total),
		at:       at,
		next:     ints[buckets+1 : 2*buckets+1 : 2*buckets+1],
		queued:   ints[2*buckets+1:],
	}
	copy(b.next, at)
	switch opt.Encoding {
	case TagEncoded:
		// A physical egress port leads to one logical peer, so it carries
		// at most vcs lists (SetTag enc(peer, vc), Output), or two toward
		// a host (SetTag 0, Output; Output alone). The plan maps both
		// ends of every switch–switch edge and an attached host's switch
		// end.
		lists := min(total, (2*g.NumSwitchSwitchEdges()+attached)*max(vcs, 2))
		b.pool = make([]openflow.Action, 0, 2*lists)
		b.tagBase = opt.TagBase
		for _, s := range switches {
			b.ports = max(b.ports, s.NumPorts)
		}
		b.listAt = make([]int32, (TagSpace(p, r)+1)*b.ports)
	case PerInPort:
		b.pool = make([]openflow.Action, 0, 3*len(r.Rules)) // SetTag(new tag), SetTag(0) toward a host, Output
	}
	return b
}

// i32 returns v as an int32. A value out of range is kept as b.err, and
// the next add fails with it instead of installing a truncated entry.
func (b *entryStore) i32(v int) int32 {
	if v != int(int32(v)) {
		b.tooWide(v)
	}
	return int32(v)
}

func (b *entryStore) tooWide(v int) {
	if b.err == nil {
		b.err = fmt.Errorf("projection: value %d does not fit a flow entry's 32-bit field", v)
	}
}

// list stores acts in the pool and returns the stored list, capped. A
// list past the pool's bound, which a plan that breaks the count's
// premise could produce, gets an array of its own.
func (b *entryStore) list(acts []openflow.Action) []openflow.Action {
	if cap(b.pool)-len(b.pool) < len(acts) {
		return slices.Clip(slices.Clone(acts))
	}
	lo := len(b.pool)
	b.pool = append(b.pool, acts...)
	return b.pool[lo:len(b.pool):len(b.pool)]
}

// forward returns TagEncoded's shared list for an egress on port:
// (SetTag tag, Output port), or (Output port) alone when setTag is
// false.
func (b *entryStore) forward(setTag bool, tag, port int) []openflow.Action {
	acts := [2]openflow.Action{
		{Type: openflow.SetTag, Tag: b.i32(tag)},
		{Type: openflow.Output, Port: b.i32(port)},
	}
	list, slot := acts[:], 1
	switch {
	case !setTag:
		list, slot = acts[1:], 0
	case tag != 0:
		slot = tag - b.tagBase + 1
		if slot < 2 {
			slot = -1 // below the compile's tags: not indexed
		}
	}
	k := slot*b.ports + port - 1
	if slot < 0 || port < 1 || port > b.ports || k >= len(b.listAt) {
		return b.list(list)
	}
	if at := int(b.listAt[k]); at > 0 {
		return b.pool[at-1 : at-1+len(list) : at-1+len(list)]
	}
	lo := len(b.pool)
	stored := b.list(list)
	if len(b.pool) > lo {
		b.listAt[k] = int32(lo + 1)
	}
	return stored
}

// add queues an entry for switch sw with the shared action list acts.
// An entry that would overflow its table fails where one Add per entry
// in emission order would: what was emitted before it is installed
// first, then Add reports the same *ErrTableFull, so Deploy's roll-back
// starts from the same tables.
func (b *entryStore) add(sw, prio int, m openflow.Match, acts []openflow.Action) error {
	if b.err != nil {
		return b.err
	}
	e := openflow.FlowEntry{Priority: int32(prio), Match: m, Actions: acts, Cookie: b.cookie}
	if t := &b.switches[sw].Table; t.Capacity > 0 && t.Len()+b.queued[sw] >= t.Capacity {
		if err := b.install(); err != nil {
			return err
		}
		return t.Add(e)
	}
	k := sw*prioSlots + prioSlot(prio)
	if b.next[k] == b.at[k+1] {
		return fmt.Errorf("projection: switch %s gets more flow entries than counted", b.switches[sw].ID)
	}
	b.entries = append(b.entries, e)
	b.batch[b.next[k]] = &b.entries[len(b.entries)-1]
	b.next[k]++
	b.queued[sw]++
	return nil
}

// install hands every switch its queued batch, in a window of batch
// capped where the next switch's begins, and empties the queues.
func (b *entryStore) install() error {
	for sw, s := range b.switches {
		lo := b.at[sw*prioSlots]
		end := lo
		for k := sw * prioSlots; k < (sw+1)*prioSlots; k++ {
			end += copy(b.batch[end:], b.batch[b.at[k]:b.next[k]])
			b.next[k] = b.at[k]
		}
		b.queued[sw] = 0
		if err := s.Table.Install(b.batch[lo:end:end]); err != nil {
			return err
		}
	}
	return nil
}

// portGroups lists each logical switch's physical ports, host-facing
// ones included — the sub-switch a wildcard-ingress rule expands over
// under PerInPort — sorted by (switch, port).
type portGroups struct {
	off   []int32 // vertex v's ports are ports[off[v]:off[v+1]]
	ports []PortRef
}

// groupPorts groups the physical ports of the plan's cables by the
// logical switch whose end each one carries, in one pass over the edges.
func groupPorts(p *Plan) portGroups {
	g := p.Topo
	n := len(g.Vertices)
	each := func(visit func(v int, ref PortRef)) {
		for eid, e := range g.Edges {
			if ref, ok := p.portAt(eid, true); ok {
				visit(e.A, ref)
			}
			if ref, ok := p.portAt(eid, false); ok {
				visit(e.B, ref)
			}
		}
	}
	off := make([]int32, n+1)
	each(func(v int, _ PortRef) { off[v+1]++ })
	for v := range n {
		off[v+1] += off[v]
	}
	ports := make([]PortRef, off[n])
	next := slices.Clone(off[:n])
	each(func(v int, ref PortRef) {
		ports[next[v]] = ref
		next[v]++
	})
	for v := range n {
		slices.SortFunc(ports[off[v]:off[v+1]], func(a, b PortRef) int {
			return cmp.Or(cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Port, b.Port))
		})
	}
	return portGroups{off, ports}
}

// of returns logical switch v's ports.
func (pg portGroups) of(v int) []PortRef { return pg.ports[pg.off[v]:pg.off[v+1]] }

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
