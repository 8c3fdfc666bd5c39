package routing

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// DragonflyUGAL is the "active routing" of §VI-E: it extends Dragonfly
// minimal routing by estimating congestion from the Network Monitor's
// per-link statistics and diverting flows onto non-minimal (Valiant)
// paths through a lightly loaded intermediate group when the minimal
// global link is congested (UGAL, after Rahman et al.'s topology-custom
// UGAL on Dragonfly).
//
// Virtual channels: tag 0 = source-group local hop of a minimal path,
// tag 3 = source-group local hop toward a non-minimal gateway, tag 1 =
// after the first global hop, tag 2 = after the second global hop.
// Classes are strictly increasing along any path, so the CDG stays
// acyclic (verified in tests).
type DragonflyUGAL struct {
	// Loads estimates per-logical-link load (e.g. bytes from the
	// Network Monitor), indexed by edge ID. A nil or short slice means
	// idle links.
	Loads []float64
	// Bias is added to the non-minimal cost so minimal wins when the
	// network is idle (UGAL's hysteresis).
	Bias float64
}

// Name implements Strategy.
func (DragonflyUGAL) Name() string { return "dragonfly-ugal" }

// Compute implements Strategy.
func (u DragonflyUGAL) Compute(g *topology.Graph) (*Routes, error) {
	df, err := indexDragonfly(g)
	if err != nil {
		return nil, err
	}
	load := func(eid int) float64 {
		if eid < len(u.Loads) {
			return u.Loads[eid]
		}
		return 0
	}
	numGroups := len(df.groups)
	r := newRoutes(g, "dragonfly-ugal", 4)
	csr := g.CSR()

	for _, dst := range g.Hosts() {
		D := g.HostSwitch(dst)
		gd := g.Vertices[D].Coord[0]

		// Destination-group rules: deliver or one local hop; accept any
		// tag (1 from minimal, 2 from non-minimal, 0 intra-group).
		for _, s := range df.groups[gd] {
			if s == D {
				r.add(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
					OutPort: csr.PortTo(s, dst), NewTag: -1})
			} else {
				r.add(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
					OutPort: csr.PortTo(s, D), NewTag: -1})
			}
		}

		for gs := 0; gs < numGroups; gs++ {
			if gs == gd {
				continue
			}
			gwMin, ok := df.gateway(gs, gd)
			if !ok {
				return nil, fmt.Errorf("routing: ugal: no global link %d->%d", gs, gd)
			}
			minEdge := g.EdgeBetween(gwMin, df.globalPeer(gwMin, gd))

			// Group-wide intermediate choice for this destination: the
			// least-loaded two-global-hop detour. Choosing per group
			// (not per source) keeps gateway flow tables consistent.
			// Tie-breaking rotates with the destination so idle-network
			// detours spread across intermediate groups instead of
			// piling onto one.
			bestMid, bestCost := -1, 0.0
			for i := 0; i < numGroups; i++ {
				mid := (dst + i) % numGroups
				if mid == gs || mid == gd {
					continue
				}
				gw1, ok1 := df.gateway(gs, mid)
				gw2, ok2 := df.gateway(mid, gd)
				if !ok1 || !ok2 {
					continue
				}
				e1 := g.EdgeBetween(gw1, df.globalPeer(gw1, mid))
				e2 := g.EdgeBetween(gw2, df.globalPeer(gw2, gd))
				cost := load(e1) + load(e2)
				if bestMid < 0 || cost < bestCost {
					bestMid, bestCost = mid, cost
				}
			}
			// UGAL decision: minimal unless it costs more than twice
			// the detour plus bias (queue-proportional comparison).
			useNonMin := bestMid >= 0 && load(minEdge) > 2*bestCost+u.Bias

			if !useNonMin {
				for _, s := range df.groups[gs] {
					if s == gwMin {
						peer := df.globalPeer(s, gd)
						r.add(Rule{Switch: s, Dst: dst, Tag: 0,
							OutPort: csr.PortTo(s, peer), NewTag: 1})
					} else {
						r.add(Rule{Switch: s, Dst: dst, Tag: 0,
							OutPort: csr.PortTo(s, gwMin), NewTag: -1})
					}
				}
				continue
			}

			gw1, _ := df.gateway(gs, bestMid)
			// Source-group rules: head for gw1 on the tag-3 class, then
			// cross to the intermediate group on tag 1.
			for _, s := range df.groups[gs] {
				if s == gw1 {
					peer := df.globalPeer(s, bestMid)
					r.add(Rule{Switch: s, Dst: dst, Tag: openflow.Any,
						OutPort: csr.PortTo(s, peer), NewTag: 1})
				} else {
					r.add(Rule{Switch: s, Dst: dst, Tag: 0,
						OutPort: csr.PortTo(s, gw1), NewTag: 3})
					r.add(Rule{Switch: s, Dst: dst, Tag: 3,
						OutPort: csr.PortTo(s, gw1), NewTag: -1})
				}
			}
			// Intermediate-group rules (tag 1): local to the gd gateway,
			// then cross on tag 2.
			gw2, _ := df.gateway(bestMid, gd)
			for _, s := range df.groups[bestMid] {
				if s == gw2 {
					peer := df.globalPeer(s, gd)
					r.add(Rule{Switch: s, Dst: dst, Tag: 1,
						OutPort: csr.PortTo(s, peer), NewTag: 2})
				} else {
					r.add(Rule{Switch: s, Dst: dst, Tag: 1,
						OutPort: csr.PortTo(s, gw2), NewTag: -1})
				}
			}
		}
	}
	dedupeRules(r)
	return r, nil
}

// dedupeRules removes exact duplicates produced by overlapping group
// roles (a switch can be intermediate for many destinations) and leaves
// the rules in canonical order: it sorts on compareRules refined by the
// action fields, so equal rules are adjacent.
func dedupeRules(r *Routes) {
	slices.SortStableFunc(r.Rules, func(a, b Rule) int {
		if c := compareRules(a, b); c != 0 {
			return c
		}
		if a.OutPort != b.OutPort {
			return cmp.Compare(a.OutPort, b.OutPort)
		}
		return cmp.Compare(a.NewTag, b.NewTag)
	})
	r.Rules = slices.Compact(r.Rules)
	r.invalidate()
}
