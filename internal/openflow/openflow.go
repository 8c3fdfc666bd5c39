// Package openflow is the commodity-OpenFlow-switch substrate SDT
// projects onto.
//
// It models exactly the switch features the paper's prototype depends
// on (§V, §VII-B): priority-ordered flow tables with wildcardable
// matches on ingress port and packet header fields, output/set-tag/drop
// actions, and a bounded table capacity (§VII-C's key resource). The
// flow tables
// both restrict forwarding to sub-switch domains (the essence of SDT's
// Link Projection) and realise routing strategies.
package openflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Any is the wildcard value for match fields.
const Any = -1

// Match selects packets. Fields set to Any match everything; InPort 0
// means any ingress port (ports are numbered from 1).
type Match struct {
	InPort  int // physical ingress port; 0 = any
	SrcHost int // source endpoint ID; Any = wildcard
	DstHost int // destination endpoint ID; Any = wildcard
	Tag     int // VLAN-style tag carrying the virtual channel; Any = wildcard
	Proto   int // protocol/traffic class; 0 = any
}

// MatchAll is the fully wildcarded match.
var MatchAll = Match{InPort: 0, SrcHost: Any, DstHost: Any, Tag: Any, Proto: 0}

// Covers reports whether m matches packet metadata p.
func (m Match) Covers(p PacketMeta) bool {
	if m.InPort != 0 && m.InPort != p.InPort {
		return false
	}
	if m.SrcHost != Any && m.SrcHost != p.SrcHost {
		return false
	}
	if m.DstHost != Any && m.DstHost != p.DstHost {
		return false
	}
	if m.Tag != Any && m.Tag != p.Tag {
		return false
	}
	if m.Proto != 0 && m.Proto != p.Proto {
		return false
	}
	return true
}

// String renders the match compactly for dumps.
func (m Match) String() string {
	var parts []string
	if m.InPort != 0 {
		parts = append(parts, fmt.Sprintf("in:%d", m.InPort))
	}
	if m.SrcHost != Any {
		parts = append(parts, fmt.Sprintf("src:%d", m.SrcHost))
	}
	if m.DstHost != Any {
		parts = append(parts, fmt.Sprintf("dst:%d", m.DstHost))
	}
	if m.Tag != Any {
		parts = append(parts, fmt.Sprintf("tag:%d", m.Tag))
	}
	if m.Proto != 0 {
		parts = append(parts, fmt.Sprintf("proto:%d", m.Proto))
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ",")
}

// ActionType enumerates flow actions.
type ActionType int

const (
	// Output forwards the packet out of Action.Port.
	Output ActionType = iota
	// SetTag rewrites the packet tag (used for VC transitions) and is
	// followed by further actions in the same entry.
	SetTag
	// Drop discards the packet.
	Drop
)

// Action is one element of an entry's action list.
type Action struct {
	Type ActionType
	Port int // for Output
	Tag  int // for SetTag
}

func (a Action) String() string {
	switch a.Type {
	case Output:
		return fmt.Sprintf("output:%d", a.Port)
	case SetTag:
		return fmt.Sprintf("set_tag:%d", a.Tag)
	default:
		return "drop"
	}
}

// FlowEntry is one row of a flow table. Higher Priority wins; among
// equal priorities the earliest-installed entry wins (stable order).
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	Cookie   uint64 // controller-assigned grouping ID (per logical topology)

	seq int // install order for stable tie-breaking
}

func (e *FlowEntry) String() string {
	acts := make([]string, len(e.Actions))
	for i, a := range e.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("prio=%d match=[%s] actions=[%s]", e.Priority, e.Match, strings.Join(acts, ","))
}

// ErrTableFull is returned when an install would exceed capacity —
// §VII-C's failure mode the controller must check for.
type ErrTableFull struct {
	Switch   string
	Capacity int
}

func (e *ErrTableFull) Error() string {
	return fmt.Sprintf("openflow: switch %s flow table full (capacity %d)", e.Switch, e.Capacity)
}

// Table is a capacity-bounded, priority-ordered flow table: one list,
// entries, in match order (see before) at all times. Install and
// RemoveCookie are its only writers. Install orders a batch of new
// entries with a counting sort by priority and merges it in from the
// back — a binary search and one memmove per new entry, every installed
// entry moved at most once, no re-sort of the table — and RemoveCookie
// compacts in place. Entries and Lookup only read it, so goroutines may
// share a table once its last mutation has returned.
type Table struct {
	Capacity int // 0 = unlimited
	entries  []*FlowEntry
	nextSeq  int
	owner    string
}

// Len reports the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Add installs a copy of e, keeping match order. It fails with
// *ErrTableFull when capacity is exhausted.
func (t *Table) Add(e FlowEntry) error {
	return t.Install([]*FlowEntry{&e})
}

// Install installs es as one Add per entry in slice order would — the
// same install order, the same table, and when capacity runs out the
// same prefix installed and the same *ErrTableFull — with one merge
// instead of one memmove per entry. The table takes the entries
// themselves, not copies, so the caller must not touch them afterwards;
// es itself is neither kept nor reordered.
func (t *Table) Install(es []*FlowEntry) error {
	var full error
	if t.Capacity > 0 && len(t.entries)+len(es) > t.Capacity {
		es = es[:max(t.Capacity-len(t.entries), 0)]
		full = &ErrTableFull{Switch: t.owner, Capacity: t.Capacity}
	}
	if len(es) == 0 {
		return full
	}
	for _, e := range es {
		e.seq = t.nextSeq
		t.nextSeq++
	}
	es = matchOrdered(es)
	// Every new entry carries a larger seq than every installed one, so
	// it belongs after every installed entry of priority >= its own:
	// from the batch's last entry back, find that slot by binary search
	// and move the installed entries after it up past the new entries
	// still to place, with one copy per new entry.
	hi := len(t.entries) // installed entries [0, hi) are not yet moved
	t.entries = slices.Grow(t.entries, len(es))[:hi+len(es)]
	for j := len(es) - 1; j >= 0; j-- {
		lo := sort.Search(hi, func(i int) bool { return before(es[j], t.entries[i]) })
		copy(t.entries[lo+j+1:], t.entries[lo:hi])
		t.entries[lo+j] = es[j]
		hi = lo
	}
	return full
}

// RemoveCookie deletes all entries with the given cookie and returns
// how many were removed. The controller uses cookies to tear down one
// logical topology without disturbing others sharing the switch.
func (t *Table) RemoveCookie(cookie uint64) int {
	kept := t.entries[:0]
	removed := 0
	for _, e := range t.entries {
		if e.Cookie == cookie {
			removed++
		} else {
			kept = append(kept, e)
		}
	}
	// Drop the removed entries' pointers from the backing array's tail,
	// or a torn-down topology's entries stay reachable until later Adds
	// happen to overwrite them.
	clear(t.entries[len(kept):])
	t.entries = kept
	return removed
}

// Prime does nothing: a table keeps no state for Lookup to build. It
// is kept only because bench/ still calls it.
func (t *Table) Prime() {}

// before is THE match-order comparator: higher priority first, then
// install order.
func before(a, b *FlowEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// matchOrdered returns es in match order. The seqs ascend along es, so
// that is a stable sort by descending priority, done as a counting sort
// over the batch's distinct priorities: O(len(es) · distinct), and a
// batch carries few (CompileFlowTables emits at most four). A batch of one
// priority is already in order and is returned as it is.
func matchOrdered(es []*FlowEntry) []*FlowEntry {
	var buf [2][8]int
	prios, next := buf[0][:0], buf[1][:0] // distinct priorities, descending; entries of each
	for _, e := range es {
		i := 0
		for i < len(prios) && prios[i] > e.Priority {
			i++
		}
		if i < len(prios) && prios[i] == e.Priority {
			next[i]++
			continue
		}
		prios = slices.Insert(prios, i, e.Priority)
		next = slices.Insert(next, i, 1)
	}
	if len(prios) == 1 {
		return es
	}
	for i, at := 0, 0; i < len(next); i++ { // counts -> first slots
		next[i], at = at, at+next[i]
	}
	out := make([]*FlowEntry, len(es))
	for _, e := range es {
		i := 0
		for prios[i] != e.Priority {
			i++
		}
		out[next[i]] = e
		next[i]++
	}
	return out
}

// Lookup returns the highest-priority entry covering p, or nil: the
// first covering entry in match order. It writes nothing and allocates
// nothing.
func (t *Table) Lookup(p PacketMeta) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Covers(p) {
			return e
		}
	}
	return nil
}

// Entries returns the installed entries in match order (highest
// priority first). The slice is shared; callers must not mutate it.
func (t *Table) Entries() []*FlowEntry { return t.entries }

// PacketMeta is the header metadata a switch matches on.
type PacketMeta struct {
	InPort  int
	SrcHost int
	DstHost int
	Tag     int
	Proto   int
}

// Forwarding is the result of processing a packet.
type Forwarding struct {
	Matched bool
	Dropped bool
	OutPort int
	Tag     int // possibly rewritten
}

// Switch is an OpenFlow switch: numbered ports 1..NumPorts and one flow
// table.
type Switch struct {
	ID       string
	NumPorts int
	Table    Table
}

// NewSwitch builds a switch with the given port count and flow table
// capacity (0 = unlimited).
func NewSwitch(id string, ports, tableCap int) *Switch {
	s := &Switch{ID: id, NumPorts: ports}
	s.Table.Capacity = tableCap
	s.Table.owner = id
	return s
}

// Process runs the table pipeline on one packet: finds the matching
// entry, applies SetTag actions, and returns the forwarding decision. Unmatched packets are dropped (the
// default table-miss behaviour the SDT prototype installs, preserving
// hardware isolation between co-hosted topologies).
func (s *Switch) Process(p PacketMeta) Forwarding {
	e := s.Table.Lookup(p)
	if e == nil {
		return Forwarding{}
	}
	fwd := Forwarding{Matched: true, Tag: p.Tag, OutPort: 0}
	for _, a := range e.Actions {
		switch a.Type {
		case SetTag:
			fwd.Tag = a.Tag
		case Output:
			fwd.OutPort = a.Port
		case Drop:
			fwd.Dropped = true
		}
	}
	if fwd.OutPort == 0 {
		fwd.Dropped = true
	}
	return fwd
}

// Dump renders the flow table for debugging and the sdtctl CLI.
func (s *Switch) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "switch %s (%d ports, %d/%d entries)\n", s.ID, s.NumPorts, s.Table.Len(), s.Table.Capacity)
	for _, e := range s.Table.Entries() {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}
