package routing

// Fault repair: recompute forwarding around dead links.
//
// repairAvoiding is the route computation behind every mid-run route
// patch — the reactive controller's fault repair (faults.Bind) and the
// reconfiguration drain and restore (reconfig.Reconfigurer) — which all
// apply it through one step, Routes.Reroute: given the original
// strategy's rule set and the fabric's link state, it returns a patched
// rule list in which only the *broken* destinations — those whose
// original tree traverses a dead link — are rerouted, via
// ShortestPath's per-destination BFS tree on the surviving subgraph.
// Healthy destinations keep their strategy rules verbatim (including
// VC transitions), so repair churn stays proportional to the blast
// radius of the fault, and a link coming back up restores the original
// strategy rules for the destinations it had broken.
//
// Repaired destinations run on single-VC shortest paths: the original
// strategy's deadlock-avoidance tagging is not re-derived for the
// degraded fabric. A destination with no surviving path gets no rules
// (packets toward it table-miss and drop).
//
// The patch is deterministic: original rule order is preserved for
// healthy destinations, repaired destinations append in ascending
// destination order, and the BFS tie-breaks by vertex ID exactly like
// ShortestPath.

import (
	"sort"

	"repro/internal/topology"
)

// ruleBroken reports whether a rule's egress edge is down.
func ruleBroken(g *topology.Graph, r *Rule, down func(edge int) bool) bool {
	if offGraph(g, r) {
		return false
	}
	e := g.CSR().EdgeAt(r.Switch, r.OutPort)
	return e >= 0 && down(e)
}

// repairAvoiding returns the patched list of g's rules orig with the
// edges down reports cut, plus the destinations it rerouted (in
// ascending order). With down nil it returns orig unchanged (restoring
// the strategy exactly).
func repairAvoiding(g *topology.Graph, orig []Rule, down func(edge int) bool) (rules []Rule, patched []int) {
	if down == nil {
		return orig, nil
	}
	broken := map[int]bool{}
	for i := range orig {
		r := &orig[i]
		if !broken[r.Dst] && ruleBroken(g, r, down) {
			broken[r.Dst] = true
		}
	}
	if len(broken) == 0 {
		return orig, nil
	}
	rules = make([]Rule, 0, len(orig))
	for _, r := range orig {
		if !broken[r.Dst] || offGraph(g, &r) {
			rules = append(rules, r)
		}
	}
	for dst := range broken {
		patched = append(patched, dst)
	}
	sort.Ints(patched)
	csr := g.CSR()
	emit := func(r Rule) { rules = append(rules, r) }
	for _, dst := range patched {
		// A tree fails only on a port-0 edge, which the validated
		// graph of a fabric does not hold.
		_ = bfsTree(g, csr, dst, down, emit)
	}
	return rules, patched
}

// Churn counts the symmetric difference between two rule sets — the
// number of flow-mods (adds + removals) a controller would push to move
// the fabric from old to new: the rule-churn column of fault repairs
// and reconfiguration stages.
func Churn(old, new []Rule) int {
	seen := make(map[Rule]int, len(old))
	for _, r := range old {
		seen[r]++
	}
	churn := 0
	for _, r := range new {
		if seen[r] > 0 {
			seen[r]--
		} else {
			churn++ // added
		}
	}
	for _, n := range seen {
		churn += n // removed
	}
	return churn
}

// Clone returns an independent copy of the route set sharing the
// topology but owning its rules and derived structures — the private
// working set a fault run mutates mid-simulation without touching the
// strategy's (possibly shared) original.
func (r *Routes) Clone() *Routes {
	c := &Routes{
		Topo:     r.Topo,
		Strategy: r.Strategy,
		NumVCs:   r.NumVCs,
		Rules:    append([]Rule(nil), r.Rules...),
	}
	return c
}

// Reroute is the one mid-run route-patch step: it swaps in the repair
// of the original rules orig (this set's strategy on its topology)
// with the edges down reports cut — orig itself when down is nil — and
// returns the churn versus the rules live before. A patch that changes
// nothing leaves the rules, and so the compiled FIB, untouched. orig is
// never aliased.
func (r *Routes) Reroute(orig []Rule, down func(edge int) bool) (churn int) {
	rules, _ := repairAvoiding(r.Topo, orig, down)
	if churn = Churn(r.Rules, rules); churn != 0 {
		r.ReplaceRules(append([]Rule(nil), rules...))
	}
	return churn
}

// ReplaceRules swaps the whole rule set and invalidates the derived
// lookup index and compiled FIB, which rebuild on next use — the
// mid-run repair path. Single-threaded with respect to forwarding: the
// engine's event loop both forwards packets and applies repairs.
func (r *Routes) ReplaceRules(rules []Rule) {
	r.Rules = rules
	r.invalidate()
}
