package flowsim

import (
	"math"
	"testing"

	"repro/internal/netsim"
)

// oracleScratch is the plain progressive-filling loop: one residual per
// link updated every round, every unfrozen flow's rate raised every
// round, and a per-flow saturation scan. Run on each link-connected
// component alone (runComponents), it is what the engine's
// fairTable.refill must reproduce bit for bit; run on every flow at
// once, it is the fill as it was before links were grouped, the table
// was kept between recomputes and components were filled apart, and
// refill must stay within 1e-9·cap of it (checkOracles). Both sides
// round every product explicitly, float64(s*c), so no architecture
// fuses a multiply-add.
type oracleScratch struct {
	rem      []float64
	cnt      []int32
	unfrozen []int32
}

func (fs *oracleScratch) run(caps []float64, links [][]int32, rates []float64) {
	const relEps = 1e-9
	nf := len(links)
	fs.rem = append(fs.rem[:0], caps...)
	fs.cnt = fs.cnt[:0]
	for range caps {
		fs.cnt = append(fs.cnt, 0)
	}
	fs.unfrozen = fs.unfrozen[:0]
	for f := 0; f < nf; f++ {
		rates[f] = 0
		for _, l := range links[f] {
			fs.cnt[l]++
		}
		fs.unfrozen = append(fs.unfrozen, int32(f))
	}
	rem, cnt, unfrozen := fs.rem, fs.cnt, fs.unfrozen
	for len(unfrozen) > 0 {
		// The uniform rate increment every unfrozen flow can still take:
		// the tightest link's residual capacity split across its flows.
		s := -1.0
		for l := range rem {
			if cnt[l] > 0 {
				if v := rem[l] / float64(cnt[l]); s < 0 || v < s {
					s = v
				}
			}
		}
		if s < 0 {
			// No unfrozen flow crosses any link (defensive; links[f] is
			// validated non-empty by the engine) — freeze the rest as-is.
			break
		}
		for _, f := range unfrozen {
			rates[f] += s
		}
		for l := range rem {
			if cnt[l] > 0 {
				rem[l] -= float64(s * float64(cnt[l]))
			}
		}
		// Keep the flows that cross no saturated link; freeing a frozen
		// flow's links mid-compaction is safe because the saturation test
		// reads rem, not cnt.
		out := unfrozen[:0]
		for _, f := range unfrozen {
			saturated := false
			for _, l := range links[f] {
				if rem[l] <= relEps*caps[l] {
					saturated = true
					break
				}
			}
			if !saturated {
				out = append(out, f)
				continue
			}
			for _, l := range links[f] {
				cnt[l]--
			}
		}
		unfrozen = out
	}
}

// runComponents runs the plain loop on each link-connected component of
// links alone and writes every flow's rate into rates.
func (fs *oracleScratch) runComponents(caps []float64, links [][]int32, rates []float64) {
	for _, comp := range components(links) {
		ls := make([][]int32, len(comp))
		for i, f := range comp {
			ls[i] = links[f]
		}
		rs := make([]float64, len(comp))
		fs.run(caps, ls, rs)
		for i, f := range comp {
			rates[f] = rs[i]
		}
	}
}

// components splits the flows of links by shared links: two flows are
// in one component when a chain of flows, each sharing a link with the
// next, joins them. Each component lists its flows in increasing order.
func components(links [][]int32) [][]int32 {
	parent := make([]int32, len(links)) // union-find over flows
	for f := range parent {
		parent[f] = int32(f)
	}
	find := func(f int32) int32 {
		for parent[f] != f {
			parent[f] = parent[parent[f]]
			f = parent[f]
		}
		return f
	}
	first := map[int32]int32{} // link → the first flow crossing it
	for f, ls := range links {
		for _, l := range ls {
			if g, ok := first[l]; ok {
				parent[find(int32(f))] = find(g)
			} else {
				first[l] = int32(f)
			}
		}
	}
	index := map[int32]int{} // root → its component
	var comps [][]int32
	for f := range links {
		r := find(int32(f))
		i, ok := index[r]
		if !ok {
			i = len(comps)
			index[r] = i
			comps = append(comps, nil)
		}
		comps[i] = append(comps[i], int32(f))
	}
	return comps
}

// checkOracles fails unless got, the rates refill produced for the
// flows of links, are Float64bits-equal to the plain loop run on each
// component alone and within 1e-9 of the largest capacity of the plain
// loop run on every flow at once.
func checkOracles(t *testing.T, fs *oracleScratch, caps []float64, links [][]int32, got []float64) {
	t.Helper()
	comp := make([]float64, len(links))
	fs.runComponents(caps, links, comp)
	global := make([]float64, len(links))
	fs.run(caps, links, global)
	maxCap := 0.0
	for _, c := range caps {
		maxCap = max(maxCap, c)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(comp[i]) || math.Abs(got[i]-global[i]) > 1e-9*maxCap {
			t.Fatalf("flow %d of %d: rate %v (%#x), per-component oracle %v (%#x), global oracle %v\ncaps=%v\nlinks=%v",
				i, len(links), got[i], math.Float64bits(got[i]), comp[i], math.Float64bits(comp[i]), global[i], caps, links)
		}
	}
}

// oracleCapPalette holds the capacities fuzz inputs draw from: repeats
// so that links share a capacity and form groups, distinct values so
// that some links start individual, and zero for dead links. It holds
// every capacity fairShareTraps uses, so the traps seed the fuzzer.
var oracleCapPalette = [16]float64{
	1, 1, 1, 0.3, 0.3, 2.5, 0, 0,
	1 + 2e-12, 0.5, 5, 0.2, 7, 0.1, 1e-3, 3,
}

// decodeOracleInput turns fuzz bytes into a fair-share input: capBytes[l]
// picks link l's capacity from oracleCapPalette (at most 64 links), and
// each byte of pathBytes appends link b&0x7f (mod the link count) to the
// current flow, a set high bit ending the flow (at most 256 flows). A
// flow may cross a link twice.
func decodeOracleInput(capBytes, pathBytes []byte) ([]float64, [][]int32) {
	nl := min(len(capBytes), 64)
	if nl == 0 {
		return nil, nil
	}
	caps := make([]float64, nl)
	for l := range caps {
		caps[l] = oracleCapPalette[capBytes[l]%16]
	}
	var links [][]int32
	var cur []int32
	for _, b := range pathBytes {
		if len(links) == 256 {
			break
		}
		cur = append(cur, int32(int(b&0x7f)%nl))
		if b&0x80 != 0 {
			links = append(links, cur)
			cur = nil
		}
	}
	if len(cur) > 0 && len(links) < 256 {
		links = append(links, cur)
	}
	return caps, links
}

// encodeOracleInput is decodeOracleInput's inverse; every capacity must
// be in oracleCapPalette and every link below 64.
func encodeOracleInput(caps []float64, links [][]int32) ([]byte, []byte) {
	capBytes := make([]byte, len(caps))
	for l, c := range caps {
		i := 0
		for math.Float64bits(oracleCapPalette[i]) != math.Float64bits(c) {
			i++
		}
		capBytes[l] = byte(i)
	}
	var path []byte
	for _, ls := range links {
		for i, l := range ls {
			b := byte(l)
			if i == len(ls)-1 {
				b |= 0x80
			}
			path = append(path, b)
		}
	}
	return capBytes, path
}

// oracleSeed generates an input of nf six-link flows over nl links with
// capacities from the palette, so counts repeat and links group.
func oracleSeed(nl, nf int, seed uint64) ([]byte, []byte) {
	s := seed*2654435761 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	capBytes := make([]byte, nl)
	for l := range capBytes {
		capBytes[l] = byte(next() % 16)
	}
	var path []byte
	for f := 0; f < nf; f++ {
		for i := 0; i < 6; i++ {
			b := byte(next() % uint64(nl))
			if i == 5 {
				b |= 0x80
			}
			path = append(path, b)
		}
	}
	return capBytes, path
}

// FuzzFairShareOracle requires the grouped, componentwise allocation to
// return exactly the bits of the plain loop run on each component, and
// to stay within 1e-9·cap of the plain loop run on every flow at once,
// on inputs where links share capacities and counts (so groups form),
// differ in capacity (so some start individual), are dead, or are
// crossed twice by one flow. The hand-built traps of
// TestFairShareGroupTraps and the input of TestRefillLastUlp seed it.
func FuzzFairShareOracle(f *testing.F) {
	for _, tc := range fairShareTraps {
		c, p := encodeOracleInput(tc.caps, tc.links)
		f.Add(c, p)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		c, p := oracleSeed(64, 200, seed)
		f.Add(c, p)
	}
	c, p := oracleSeed(16, 40, 5)
	f.Add(c, p)
	c, p = encodeOracleInput(lastUlpInput())
	f.Add(c, p)
	f.Fuzz(func(t *testing.T, capBytes, pathBytes []byte) {
		caps, links := decodeOracleInput(capBytes, pathBytes)
		var oracle oracleScratch
		// Half the flows, then all of them; the oracle's second call
		// starts from the first one's leftovers.
		for _, ls := range [][][]int32{links[:len(links)/2], links} {
			got := make([]float64, len(ls))
			fairShare(caps, ls, got)
			checkOracles(t, &oracle, caps, ls, got)
		}
	})
}

// incrementalEngine builds an engine over links of one capacity whose
// flows cross paths, each flow its own pair queue with a byte left to
// send, and nothing admitted yet.
func incrementalEngine(capacity float64, nLinks int, paths [][]int32) *engine {
	n := len(paths)
	infos := make([]pathInfo, n)
	st := make([]flowState, n)
	nextInPair := make([]int32, n)
	for f := range paths {
		infos[f].links = paths[f]
		st[f] = flowState{path: &infos[f], remaining: 1}
		nextInPair[f] = -1
	}
	return &engine{
		flows:      make([]netsim.Flow, n),
		st:         st,
		nextInPair: nextInPair,
		pairs:      n,
		fair:       newFairTable(st, nLinks, func(int32) float64 { return capacity }),
	}
}

// checkTable fails unless the table holds exactly the active flows:
// each link that an active flow crosses has a local index and chains
// one slot per crossing, no other link is live or mapped, and every
// other local index is free.
func checkTable(t *testing.T, ft *fairTable, active []int32) {
	t.Helper()
	crossings := map[int32]int32{} // global link → active slots on it
	for _, f := range active {
		fs := &ft.st[f]
		for h, gl := range fs.path.links {
			crossings[gl]++
			if sl := ft.slots[fs.slot+int32(h)]; sl.flow != f || ft.local[gl] != sl.link+1 {
				t.Fatalf("flow %d hop %d: slot %+v, link %d maps to local %d", f, h, sl, gl, ft.local[gl]-1)
			}
		}
	}
	live := 0
	for l := range ft.links {
		lk := &ft.links[l]
		if lk.n == 0 {
			continue
		}
		live++
		chained := int32(0)
		for sp := lk.head; sp >= 0; sp = ft.slots[sp].next {
			if ft.slots[sp].link != int32(l) || chained > lk.n {
				t.Fatalf("link %d: chain of %d slots broken at slot %d (%+v)", l, lk.n, sp, ft.slots[sp])
			}
			chained++
		}
		if chained != lk.n || crossings[lk.gl] != lk.n || ft.local[lk.gl] != int32(l)+1 {
			t.Fatalf("link %d (global %d): n=%d, chained %d, crossed %d times, local %d",
				l, lk.gl, lk.n, chained, crossings[lk.gl], ft.local[lk.gl]-1)
		}
	}
	mapped := 0
	for _, l := range ft.local {
		if l != 0 {
			mapped++
		}
	}
	for _, l := range ft.free {
		if ft.links[l].n != 0 {
			t.Fatalf("local index %d is free and carries %d slots", l, ft.links[l].n)
		}
	}
	if live != len(crossings) || mapped != live || live+len(ft.free) != len(ft.links) {
		t.Fatalf("%d live links, %d mapped, %d free of %d; active flows cross %d",
			live, mapped, len(ft.free), len(ft.links), len(crossings))
	}
}

// incrementalSeed generates ops for FuzzRecomputeIncremental: bursts of
// arrivals, partial completions, and now and then a completion of every
// active flow.
func incrementalSeed(nOps int, seed uint64) []byte {
	s := seed*2654435761 + 1
	ops := make([]byte, nOps)
	for i := range ops {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		switch s % 8 {
		case 0:
			ops[i] = 0xff // complete every active flow
		case 1, 2, 3:
			ops[i] = 0x80 | byte(s>>8)&0x7f
		default:
			ops[i] = byte(s>>8) & 0x1f
		}
	}
	return ops
}

// rankSeed generates paths for FuzzRecomputeIncremental over 32 links
// in which, as in flow-xl, flows share their ranks' links: each of 16
// ranks has an uplink (links 0–15) and a downlink (16–31), and a flow
// crosses its source's uplink and its destination's downlink. Of its
// nOps ops, one in three completes the active flows at every fourth
// position and the others admit one or two flows, so the active set
// stays small: arrivals merge components through the shared links, and
// completions split them.
func rankSeed(nOps int, seed uint64) (path, ops []byte) {
	s := seed*2654435761 + 1
	next := func(n int) byte {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return byte(s % uint64(n))
	}
	for range nOps {
		src, dst := next(16), next(15)
		if dst >= src {
			dst++
		}
		path = append(path, src, 0x80|(16+dst))
		if next(3) == 0 {
			ops = append(ops, 0x8c|next(4))
		} else {
			ops = append(ops, next(2))
		}
	}
	return path, ops
}

// FuzzRecomputeIncremental drives the engine's admit, completeDue and
// recompute through random sequences and requires, after every
// recompute, the rates the kept table produced — some refilled now, the
// rest left from earlier recomputes — to be Float64bits-equal to a
// table built from nothing (fairShare) and to the plain filling loop
// run on each component, and within 1e-9·cap of the plain loop run on
// every flow at once, all over the same active set. Paths come from
// decodeOracleInput over at most 32 links of one capacity, so links are
// shared and may repeat within a path. Of at most 256 ops, a byte below
// 0x80 admits the next 1–32 flows; 0xff completes every active flow; any other byte
// with the high bit set completes the active flows at positions i with
// (i+b&3) % (1+b>>2&3) == 0. Bursts empty links and fill them again, so
// local indices are recycled, and the active set falls to zero and grows
// again. rankSeed's seeds keep the active set small over links that
// many flows share, so arrivals merge components and completions split
// them. After every op, checkTable holds the table to the active set.
func FuzzRecomputeIncremental(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		_, p := oracleSeed(24, 200, seed)
		f.Add(uint8(24), uint8(seed), p, incrementalSeed(64, seed))
	}
	_, p := oracleSeed(6, 60, 5)
	f.Add(uint8(6), uint8(0), p, incrementalSeed(40, 5))
	caps, paths := lastUlpInput()
	_, p = encodeOracleInput(caps, paths)
	f.Add(uint8(len(caps)-1), uint8(0), p, []byte{byte(len(paths) - 1)})
	for seed := uint64(6); seed <= 8; seed++ {
		p, ops := rankSeed(128, seed)
		f.Add(uint8(31), uint8(0), p, ops)
	}
	f.Fuzz(func(t *testing.T, nLinks, capIdx uint8, pathBytes, ops []byte) {
		nl := 1 + int(nLinks)%32
		capBytes := make([]byte, nl)
		for l := range capBytes {
			capBytes[l] = capIdx
		}
		caps, paths := decodeOracleInput(capBytes, pathBytes)
		if len(paths) == 0 {
			return
		}
		if len(ops) > 256 {
			ops = ops[:256]
		}
		e := incrementalEngine(caps[0], nl, paths)
		var oracle oracleScratch
		admitted := 0
		for _, op := range ops {
			changed := false
			switch {
			case op < 0x80:
				for k := 0; k <= int(op&0x1f) && admitted < len(paths); k++ {
					changed = e.admit(pendEntry{fi: int32(admitted)}) || changed
					admitted++
				}
			default:
				off, div := int(op&3), 1+int(op>>2&3)
				for i, fi := range e.active {
					if op == 0xff || (i+off)%div == 0 {
						e.st[fi].remaining = 0
					}
				}
				changed = e.completeDue()
			}
			checkTable(t, &e.fair, e.active)
			if !changed || len(e.active) == 0 {
				continue
			}
			e.recompute()
			ls := make([][]int32, len(e.active))
			for i, fi := range e.active {
				ls[i] = paths[fi]
			}
			got := make([]float64, len(ls))
			for i, fi := range e.active {
				got[i] = e.st[fi].rate
			}
			fresh := make([]float64, len(ls))
			fairShare(caps, ls, fresh)
			for i, fi := range e.active {
				if math.Float64bits(got[i]) != math.Float64bits(fresh[i]) {
					t.Fatalf("recompute %d, flow %d: kept table %v (%#x), fresh table %v (%#x)\ncap=%v active=%v\npaths=%v",
						e.recomputes, fi, got[i], math.Float64bits(got[i]), fresh[i], math.Float64bits(fresh[i]), caps[0], e.active, ls)
				}
			}
			checkOracles(t, &oracle, caps, ls, got)
		}
	})
}

// lastUlpInput is an input on which filling each component alone and
// filling every flow at once differ in the last ulp: flows 0, 3 and 7
// saturate link 6 at 1/3, and flow 2 then takes the rest of link 21.
// Alone, its component reaches flow 2's level as 1/3 + 1/3; at once,
// the other component's saturation of link 2 at 0.2 splits the same
// level into 0.2 + 2/15 + 4/15 + 1/15.
func lastUlpInput() ([]float64, [][]int32) {
	caps := make([]float64, 24)
	for l := range caps {
		caps[l] = 1
	}
	return caps, [][]int32{{6, 15}, {2}, {21}, {6, 7}, {2}, {23}, {2, 23, 2}, {6, 21}, {23, 2}}
}

func TestRefillLastUlp(t *testing.T) {
	caps, links := lastUlpInput()
	got := make([]float64, len(links))
	fairShare(caps, links, got)
	var oracle oracleScratch
	comp := make([]float64, len(links))
	oracle.runComponents(caps, links, comp)
	global := make([]float64, len(links))
	oracle.run(caps, links, global)
	const alone, atOnce uint64 = 0x3fe5555555555556, 0x3fe5555555555555
	if g, c, a := math.Float64bits(got[2]), math.Float64bits(comp[2]), math.Float64bits(global[2]); g != alone || c != alone || a != atOnce {
		t.Fatalf("flow 2: refill %#x, per-component oracle %#x, global oracle %#x; want %#x, %#x, %#x", g, c, a, alone, alone, atOnce)
	}
	checkOracles(t, &oracle, caps, links, got)
}

// TestRefillHistoryIndependent reaches one active set through two
// different orders of arrivals, completions and recomputes, and
// requires the kept tables to hold the bits of a table built from
// nothing: a component's rates depend on its flows, not on when its
// neighbours were last refilled.
func TestRefillHistoryIndependent(t *testing.T) {
	caps, paths := xlShapedInput(120)
	keep := func(f int) bool { return f%3 != 0 }
	// step admits the flows of in, completes those of out, and
	// recomputes, as the engine's loop does.
	step := func(e *engine, in, out []int32) {
		changed := false
		for _, f := range in {
			changed = e.admit(pendEntry{fi: f}) || changed
		}
		for _, f := range out {
			e.st[f].remaining = 0
		}
		if len(out) > 0 {
			changed = e.completeDue() || changed
		}
		if changed && len(e.active) > 0 {
			e.recompute()
		}
	}

	// Every flow in order, one per recompute, then the unkept ones.
	a := incrementalEngine(caps[0], len(caps), paths)
	for f := range paths {
		step(a, []int32{int32(f)}, nil)
	}
	for f := range paths {
		if !keep(f) {
			step(a, nil, []int32{int32(f)})
		}
	}
	// Batches of seven from the back, each batch's unkept flows
	// completing one recompute after it arrives.
	b := incrementalEngine(caps[0], len(caps), paths)
	for hi := len(paths); hi > 0; hi -= 7 {
		var in, out []int32
		for f := hi - 1; f >= max(0, hi-7); f-- {
			in = append(in, int32(f))
			if !keep(f) {
				out = append(out, int32(f))
			}
		}
		step(b, in, nil)
		step(b, nil, out)
	}

	var ls [][]int32
	for f := range paths {
		if keep(f) {
			ls = append(ls, paths[f])
		}
	}
	fresh := make([]float64, len(ls))
	fairShare(caps, ls, fresh)
	for _, e := range []*engine{a, b} {
		checkTable(t, &e.fair, e.active)
		i := 0
		for f := range paths {
			if !keep(f) {
				continue
			}
			if got := e.st[f].rate; math.Float64bits(got) != math.Float64bits(fresh[i]) {
				t.Fatalf("flow %d: kept table %v (%#x), fresh table %v (%#x)", f, got, math.Float64bits(got), fresh[i], math.Float64bits(fresh[i]))
			}
			i++
		}
	}
}
