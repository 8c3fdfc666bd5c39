package flowsim

import "slices"

// Max-min fair-share allocation by progressive filling (water-filling):
// every unfrozen flow's rate rises uniformly until some link saturates,
// the flows crossing a saturated link freeze at their current rate, and
// filling continues with the survivors until every flow is frozen. The
// result is the unique max-min allocation: no flow's rate can be
// increased without decreasing the rate of a flow that is no faster.
//
// caps[l] is link l's capacity, links[f] lists the links flow f
// crosses, and rates[f] receives f's allocation. Units are whatever the
// caller uses (the engine passes payload bytes per picosecond). A flow
// crossing a zero-capacity link is frozen at rate 0. The computation is
// deterministic — identical inputs produce identical outputs;
// FuzzFairShare pins the invariants (no link over capacity,
// non-negative rates, max-min).
//
// The contract needs caps[l] >= 0. A link that still carries unfrozen
// flows then always has a residual above relEps·cap >= 0, so every
// candidate increment is non-negative and the round's minimum is the
// same value whatever order the candidates are visited in — which is
// what lets run visit groups and links in an order of its own and
// still return the bits of the plain per-link filling loop
// (oracle_test.go, FuzzFairShareOracle).

// fairScratch reuses the filling loop's working set across recomputes:
// the allocation runs once per arrival/completion event, so per-call
// allocation would dominate the fluid engine's profile.
type fairScratch struct {
	rem     []float64 // link → residual, kept only once the link is individual
	cnt     []int32   // link → unfrozen flows crossing it
	grp     []int32   // link → its group while untouched, -1 once individual
	off     []int32   // link → first entry of its flows in inc (CSR)
	inc     []int32   // the flows crossing each link, link by link
	frozen  []bool
	groups  []fairGroup
	byCount []int32 // initial count → group index + 1, 0 = none yet
	gOff    []int32 // group → first entry of its links in members (CSR)
	members []int32
	live    []int32 // groups that still have members
	indiv   []int32 // individual links that still carry unfrozen flows
	sat     []int32 // links saturated in the current round
}

// fairGroup stands for every link that started with the same flow count
// and capacity and has had none of its flows frozen yet: such links
// follow the identical recurrence rem ← rem − s·count, so one residual
// serves them all.
type fairGroup struct {
	rem, cap float64
	c        float64 // the members' flow count
	n        int32   // members still in the group
}

// run computes the allocation with the operations of the plain filling
// loop — one residual per link, rem[l] −= s·cnt[l] each round, every
// unfrozen flow's rate += s each round — performed on fewer values:
//
//   - Every unfrozen flow's rate is the running level s₁+…+s_r, summed
//     in the same order, so a flow takes the level when it freezes and
//     no round touches the unfrozen flows.
//   - Saturation is found by link: a saturated link freezes its
//     unfrozen flows through a link→flow incidence, so each flow is
//     frozen once instead of being rescanned every round.
//   - Links of one group share one residual until one of their flows
//     freezes; the link then takes the group's residual and, if flows
//     remain on it, continues as an individual link.
//
// A round therefore costs the live groups plus the live individual
// links, not every used link. At least the arg-min link saturates per
// round, so the loop terminates.
func (fs *fairScratch) run(caps []float64, links [][]int32, rates []float64) {
	const relEps = 1e-9
	nl, nf := len(caps), len(links)

	// Link→flow incidence: count, turn counts into running ends, then
	// fill backwards so each end moves down to its link's start.
	fs.cnt = resize(fs.cnt, nl)
	fs.off = resize(fs.off, nl+1)
	cnt, off := fs.cnt, fs.off
	clear(cnt)
	for _, ls := range links {
		for _, l := range ls {
			cnt[l]++
		}
	}
	total, maxCnt := int32(0), int32(0)
	for l, c := range cnt {
		total += c
		off[l] = total
		maxCnt = max(maxCnt, c)
	}
	off[nl] = total
	fs.inc = resize(fs.inc, int(total))
	inc := fs.inc
	for f := nf - 1; f >= 0; f-- {
		for _, l := range links[f] {
			off[l]--
			inc[off[l]] = int32(f)
		}
	}

	// Groups, keyed by initial count; the first link with a count sets
	// the group's capacity and a link with another capacity is
	// individual from the start.
	fs.rem = resize(fs.rem, nl)
	fs.grp = resize(fs.grp, nl)
	fs.byCount = resize(fs.byCount, int(maxCnt)+1)
	rem, grp, byCount := fs.rem, fs.grp, fs.byCount
	clear(byCount)
	groups := fs.groups[:0]
	indiv := fs.indiv[:0]
	for l, c := range cnt {
		grp[l] = -1
		if c == 0 {
			continue
		}
		g := byCount[c] - 1
		if g < 0 {
			g = int32(len(groups))
			byCount[c] = g + 1
			groups = append(groups, fairGroup{rem: caps[l], cap: caps[l], c: float64(c)})
		}
		if caps[l] != groups[g].cap {
			rem[l] = caps[l]
			indiv = append(indiv, int32(l))
			continue
		}
		grp[l] = g
		groups[g].n++
	}
	fs.gOff = resize(fs.gOff, len(groups)+1)
	gOff := fs.gOff
	live := fs.live[:0]
	end := int32(0)
	for g := range groups {
		end += groups[g].n
		gOff[g] = end
		if groups[g].n > 0 {
			live = append(live, int32(g))
		}
	}
	gOff[len(groups)] = end
	fs.members = resize(fs.members, int(end))
	members := fs.members
	for l := nl - 1; l >= 0; l-- {
		if g := grp[l]; g >= 0 {
			gOff[g]--
			members[gOff[g]] = int32(l)
		}
	}

	fs.frozen = resize(fs.frozen, nf)
	frozen := fs.frozen
	clear(frozen)
	unfrozen := nf
	level := 0.0
	sat := fs.sat[:0]
	for unfrozen > 0 {
		// The uniform rate increment every unfrozen flow can still take:
		// the tightest link's residual capacity split across its flows.
		// Groups whose members have all left and links whose flows have
		// all frozen drop out here.
		s := -1.0
		out := live[:0]
		for _, g := range live {
			gr := &groups[g]
			if gr.n == 0 {
				continue
			}
			out = append(out, g)
			if v := gr.rem / gr.c; s < 0 || v < s {
				s = v
			}
		}
		live = out
		out = indiv[:0]
		for _, l := range indiv {
			if cnt[l] == 0 {
				continue
			}
			out = append(out, l)
			if v := rem[l] / float64(cnt[l]); s < 0 || v < s {
				s = v
			}
		}
		indiv = out
		if s < 0 {
			// No unfrozen flow crosses any link (defensive; links[f] is
			// validated non-empty by the engine) — the rest take the
			// level below.
			break
		}
		level += s

		// Update every live residual and collect the saturated links
		// before freezing anything: a link that leaves a saturated group
		// below must still freeze its remaining flows.
		sat = sat[:0]
		for _, g := range live {
			gr := &groups[g]
			gr.rem -= float64(s * gr.c)
			if gr.rem <= relEps*gr.cap {
				for _, l := range members[gOff[g]:gOff[g+1]] {
					if grp[l] == g {
						sat = append(sat, l)
					}
				}
			}
		}
		for _, l := range indiv {
			rem[l] -= float64(s * float64(cnt[l]))
			if rem[l] <= relEps*caps[l] {
				sat = append(sat, l)
			}
		}

		for _, sl := range sat {
			for _, f := range inc[off[sl]:off[sl+1]] {
				if frozen[f] {
					continue
				}
				frozen[f] = true
				rates[f] = level
				unfrozen--
				for _, l := range links[f] {
					cnt[l]--
					if g := grp[l]; g >= 0 {
						grp[l] = -1
						groups[g].n--
						if cnt[l] > 0 {
							rem[l] = groups[g].rem
							indiv = append(indiv, l)
						}
					}
				}
			}
		}
	}
	for f := range frozen {
		if !frozen[f] {
			rates[f] = level
		}
	}
	fs.groups, fs.live, fs.indiv, fs.sat = groups, live, indiv, sat
}

// resize returns s with length n, reusing its array when it is large
// enough and growing it as append does otherwise, so a slowly growing
// active set reallocates rarely; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// fairShare is the scratch-free entry point tests and the fuzz target
// exercise; the engine holds its own fairScratch instead.
func fairShare(caps []float64, links [][]int32, rates []float64) {
	(&fairScratch{}).run(caps, links, rates)
}
