package routing

import (
	"fmt"
	"math"

	"repro/internal/openflow"
)

// FIB is a compiled forwarding table: Routes flattened into one dense
// per-(switch, destination) slot array so the per-hop forwarding
// decision — the hottest operation in the whole simulator — is a few
// array loads instead of a binary search over rule indices.
//
// Layout: the array is sized by what is routed. Its rows are the
// switches that own a rule and its columns the destinations some rule
// routes to, both numbered in ascending vertex ID from 1; row 0 and
// column 0 are empty sentinels. rowBase[sw] is switch sw's row times
// the column count and col[dst] destination dst's column, both 0 for a
// vertex with no row or column, so slot (sw, dst) is
// slots[rowBase[sw]+col[dst]] — two independent loads, then the slot —
// and a pair with no rule reads the empty slot without a branch. The
// common case — a single fully wildcarded rule (InPort: any, Tag: any),
// which is what every Table III strategy installs for most
// (switch, dst) pairs — packs into one uint32:
//
//	bits  0..15  out port (0 = empty slot / table miss)
//	bits 16..30  new tag + 1 (0 = keep the packet's tag)
//	bit  31      spill flag
//
// Slots whose rule set includes port- or tag-qualified rules (the
// Dragonfly/Torus VC transitions) or a rule whose fields overflow the
// packed encoding carry the spill flag; bits 0..30 then index a small
// per-slot spill list holding the full rules in Lookup's
// most-specific-first order. Forward is branch-light and
// allocation-free on both paths.
//
// A pair whose switch or destination is not a vertex misses, as it
// does in Lookup.
//
// A FIB is immutable once compiled and safe for concurrent readers; its
// decision must agree with the one Routes.Lookup's rule implies on
// every (switch, inPort, dst, tag) tuple — Lookup stays as the
// reference implementation and the differential tests in fib_test.go
// enforce the equivalence.
type FIB struct {
	rowBase []int32 // per vertex: row × columns, 0 = the sentinel row
	col     []int32 // per vertex: column, 0 = the sentinel column
	slots   []uint32
	// Spill storage in CSR form: spill group k holds
	// spillRules[spillOff[k]:spillOff[k+1]].
	spillOff   []int32
	spillRules []spillRule
}

// spillRule is one qualified (or encoding-overflowing) rule in a spill
// list, stored unpacked so arbitrary manual rule sets round-trip.
type spillRule struct {
	inPort int32 // 0 = any
	tag    int32 // openflow.Any = any
	out    int32
	newTag int32 // -1 = keep
}

const fibSpill = uint32(1) << 31

// fibPackable reports whether a rule's action fits the packed fast
// encoding (port- and tag-wildcarded, fields in range).
func fibPackable(r *Rule) bool {
	return r.InPort == 0 && r.Tag == openflow.Any &&
		r.OutPort > 0 && r.OutPort <= 0xffff && r.NewTag < 0x7ffe
}

func fibPack(r *Rule) uint32 {
	v := uint32(r.OutPort)
	if r.NewTag >= 0 {
		v |= uint32(r.NewTag+1) << 16
	}
	return v
}

// Compile flattens the route set into a FIB. The result snapshots the
// current rules: adding rules afterwards requires recompiling (the
// memoized accessor FIB invalidates automatically, exactly like the
// lookup index).
//
// It numbers the rows and columns in one pass over the rules, then
// walks the lookup index's (switch, dst) groups once — O(rules) plus
// the rows × columns slot array — skipping the groups off the graph,
// which match nothing. The index order is what keeps the FIB
// reproducible: spill groups are numbered in (switch, dst) order.
func (r *Routes) Compile() *FIB {
	x := r.index()
	n := len(r.Topo.Vertices)
	f := &FIB{
		rowBase:  make([]int32, n),
		col:      make([]int32, n),
		spillOff: []int32{0},
	}
	for i := range r.Rules {
		if rule := &r.Rules[i]; !offGraph(r.Topo, rule) {
			f.rowBase[rule.Switch] = 1
			f.col[rule.Dst] = 1
		}
	}
	rows, cols := number(f.rowBase), number(f.col)
	if int64(rows)*int64(cols) > math.MaxInt32 {
		panic(fmt.Sprintf("routing: a FIB of %d × %d slots", rows, cols))
	}
	for s := range f.rowBase {
		f.rowBase[s] *= cols
	}
	f.slots = make([]uint32, rows*cols)
	for lo, hi := 0, 0; lo < len(r.Rules); lo = hi {
		hi = x.groupEnd(r.Rules, lo)
		first := &r.Rules[x.at(lo)]
		if offGraph(r.Topo, first) {
			continue
		}
		slot := f.rowBase[first.Switch] + f.col[first.Dst]
		// Fast path only when every rule after the first can never
		// win: the first rule is fully wildcarded (most specific
		// first means the rest are too, so they are shadowed) and
		// its action packs.
		if fibPackable(first) {
			f.slots[slot] = fibPack(first)
			continue
		}
		f.slots[slot] = f.spillGroup(r.Rules, x, lo, hi)
	}
	return f
}

// number replaces every mark (non-zero entry) of marks with its rank
// among them, from 1 in index order, and returns the count of marks
// plus one: the rows or columns of a FIB, sentinel included.
func number(marks []int32) int32 {
	k := int32(1)
	for i, m := range marks {
		if m != 0 {
			marks[i] = k
			k++
		}
	}
	return k
}

// spillGroup appends the rules at index positions lo..hi (one group,
// already most-specific-first) as a new spill group and returns its
// slot word.
func (f *FIB) spillGroup(rules []Rule, x *routeIndex, lo, hi int) uint32 {
	k := len(f.spillOff) - 1
	for i := lo; i < hi; i++ {
		rule := &rules[x.at(i)]
		f.spillRules = append(f.spillRules, spillRule{
			inPort: int32(rule.InPort),
			tag:    int32(rule.Tag),
			out:    int32(rule.OutPort),
			newTag: int32(rule.NewTag),
		})
	}
	f.spillOff = append(f.spillOff, int32(len(f.spillRules)))
	return fibSpill | uint32(k)
}

// slot returns the slot word of (sw, dst), 0 off the graph.
func (f *FIB) slot(sw, dst int) uint32 {
	if uint(sw) < uint(len(f.rowBase)) && uint(dst) < uint(len(f.col)) {
		return f.slots[f.rowBase[sw]+f.col[dst]]
	}
	return 0
}

// Forward returns the egress port and the packet's resulting tag for a
// packet on switch sw arriving on inPort with the given destination and
// current tag. ok is false on a table miss. It performs no allocation
// and, on the fast path, three array loads.
func (f *FIB) Forward(sw, inPort, dst, tag int) (outPort, newTag int, ok bool) {
	v := f.slot(sw, dst)
	if v == 0 {
		return 0, 0, false
	}
	if v&fibSpill == 0 {
		nt := int(v >> 16)
		if nt == 0 {
			return int(v & 0xffff), tag, true
		}
		return int(v & 0xffff), nt - 1, true
	}
	if sr := f.spillMatch(v, inPort, tag); sr != nil {
		if sr.newTag >= 0 {
			return int(sr.out), int(sr.newTag), true
		}
		return int(sr.out), tag, true
	}
	return 0, 0, false
}

// spillMatch scans slot word v's spill group for the first entry —
// they are stored most-specific-first — matching (inPort, tag).
// Allocation-free.
func (f *FIB) spillMatch(v uint32, inPort, tag int) *spillRule {
	k := v &^ fibSpill
	rules := f.spillRules[f.spillOff[k]:f.spillOff[k+1]]
	for i := range rules {
		sr := &rules[i]
		if sr.inPort != 0 && int(sr.inPort) != inPort {
			continue
		}
		if sr.tag != openflow.Any && int(sr.tag) != tag {
			continue
		}
		return sr
	}
	return nil
}
