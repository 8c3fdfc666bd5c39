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
	"cmp"
	"fmt"
	"math/bits"
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

// Table is a capacity-bounded, priority-ordered flow table.
//
// entries is kept in match order (see before) at all times: Install
// orders a batch of new entries with a counting sort by priority and
// merges it in from the back — a binary search and one memmove per new
// entry, every installed entry moved at most once, no re-sort of the
// table — and RemoveCookie compacts in place, so Entries() is a plain
// read and never a write.
//
// Lookup runs on an exact-match index: the entries with a concrete
// DstHost in one flat list sorted by destination, each destination's
// run in match order, and the fully dst-wildcarded entries in a shared
// fallback list, also in match order. A lookup binary-searches its
// destination's run and merge-scans it against the fallback list by
// (priority, seq) instead of scanning every installed entry — the SDT
// substrate installs per-(dst, sub-switch) entries almost exclusively,
// so the scan shrinks from O(table) to O(rules for this destination).
// Both lists keep their storage across rebuilds.
type Table struct {
	Capacity int // 0 = unlimited
	entries  []*FlowEntry
	nextSeq  int
	owner    string

	// Lookup index, rebuilt lazily after mutations: byDst holds the
	// entries with a concrete Match.DstHost, sorted by it; wild holds
	// the DstHost==Any entries. Both keep the entries slice's match
	// order within a destination.
	byDst    []dstEntry
	wild     []*FlowEntry
	idxTmp   []dstEntry // buildIndex's sort buffer, cleared after use
	idxDirty bool
}

// dstEntry is one entry of the destination index, with its DstHost
// beside it so the binary search reads no entry.
type dstEntry struct {
	dst int
	e   *FlowEntry
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
	t.idxDirty = true
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
	t.idxDirty = true
	return removed
}

// Prime eagerly (re)builds the lookup index. Lookup otherwise builds
// it lazily on first use after a mutation, which makes a first Lookup
// a write: a Table shared read-only across goroutines must be Primed
// after its last Add/RemoveCookie — the controller does this at deploy
// time — exactly like routing.Routes.Prime. (The pre-index linear-scan
// Lookup was safe for concurrent readers; the index is not, without
// this.)
func (t *Table) Prime() {
	if t.idxDirty {
		t.buildIndex()
	}
}

// buildIndex rebuilds the index from the (already match-ordered)
// entries slice, in the storage of the last one. The old index is
// cleared first, so it keeps no removed entry reachable.
//
// The destination list is put in order by a stable LSD radix sort on
// dst − min(dst), radixBits at a time: each pass keeps equal digits in
// their order, so each destination's run stays in match order, and a
// table's destinations — endpoint IDs — take one or two passes. That is
// O(entries) with no comparison; a comparison sort of the list took
// about twice as long as the per-destination map it replaced.
func (t *Table) buildIndex() {
	clear(t.byDst)
	clear(t.wild)
	t.byDst, t.wild = t.byDst[:0], t.wild[:0]
	var lo, hi int
	for _, e := range t.entries {
		d := e.Match.DstHost
		if d == Any {
			t.wild = append(t.wild, e)
			continue
		}
		if len(t.byDst) == 0 {
			lo, hi = d, d
		}
		lo, hi = min(lo, d), max(hi, d)
		t.byDst = append(t.byDst, dstEntry{d, e})
	}
	span := uint64(hi) - uint64(lo) // no overflow: hi ≥ lo
	src, tmp := t.byDst, slices.Grow(t.idxTmp[:0], len(t.byDst))[:len(t.byDst)]
	for shift := 0; shift < bits.Len64(span); shift += radixBits {
		var at [1<<radixBits + 1]int32 // digit → first slot of its run
		for _, d := range src {
			at[(uint64(d.dst)-uint64(lo))>>shift&(1<<radixBits-1)+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for _, d := range src {
			k := (uint64(d.dst) - uint64(lo)) >> shift & (1<<radixBits - 1)
			tmp[at[k]] = d
			at[k]++
		}
		src, tmp = tmp, src
	}
	clear(tmp)
	t.byDst, t.idxTmp = src, tmp
	t.idxDirty = false
}

// radixBits is the digit width of buildIndex's radix sort.
const radixBits = 11

// dstRun returns dst's run of the destination index.
func (t *Table) dstRun(dst int) []dstEntry {
	lo, _ := slices.BinarySearchFunc(t.byDst, dst, func(d dstEntry, dst int) int { return cmp.Compare(d.dst, dst) })
	hi := lo
	for hi < len(t.byDst) && t.byDst[hi].dst == dst {
		hi++
	}
	return t.byDst[lo:hi]
}

// before is THE match-order comparator — higher priority first, then
// install order — shared by Install's merge and Lookup's bucket merge
// so the two orderings cannot drift apart.
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

// Lookup returns the highest-priority entry covering p, or nil. Only
// the packet destination's run and the dst-wildcard fallback list are
// scanned — an entry for any other destination cannot cover p — in
// their merged match order, so the result is identical to a linear
// scan of the full table. Lookup performs no allocation; the first call
// after a mutation rebuilds the index (see Prime for the
// concurrent-sharing contract).
func (t *Table) Lookup(p PacketMeta) *FlowEntry {
	t.Prime()
	bucket := t.dstRun(p.DstHost)
	wild := t.wild
	bi, wi := 0, 0
	for bi < len(bucket) || wi < len(wild) {
		var e *FlowEntry
		if wi >= len(wild) || (bi < len(bucket) && before(bucket[bi].e, wild[wi])) {
			e = bucket[bi].e
			bi++
		} else {
			e = wild[wi]
			wi++
		}
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
