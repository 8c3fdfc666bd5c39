package routing

// Fault repair: recompute forwarding around dead links.
//
// RepairAvoiding is the route computation behind every mid-run route
// patch — the reactive controller's fault repair (faults.Bind) and the
// reconfiguration drain and restore (reconfig.Reconfigurer) — which all
// apply it through one step, Routes.Reroute: given the original
// strategy's rule set and the currently-down links, it returns a
// patched rule list in which only the *broken* destinations — those
// whose original tree traverses a dead link — are rerouted, via
// per-destination BFS on the surviving subgraph. Healthy
// destinations keep their strategy rules verbatim (including VC
// transitions), so repair churn stays proportional to the blast radius
// of the fault, and a link coming back up restores the original
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

	"repro/internal/openflow"
	"repro/internal/topology"
)

// Outage is the set of currently-failed links.
type Outage struct {
	// Edge marks down logical edge IDs.
	Edge map[int]bool
}

// Empty reports whether nothing is down.
func (o Outage) Empty() bool { return len(o.Edge) == 0 }

// ruleBroken reports whether a rule's egress edge is cut.
func ruleBroken(g *topology.Graph, csr *topology.CSR, r *Rule, down Outage) bool {
	if r.Switch < 0 || r.Switch >= len(g.Vertices) {
		return false // manual out-of-range rule; nothing to check
	}
	lo, hi := csr.Row(r.Switch)
	for e := lo; e < hi; e++ {
		if int(csr.Port[e]) == r.OutPort {
			return down.Edge[int(csr.Edge[e])]
		}
	}
	return false
}

// RepairAvoiding returns the patched rule list for the original route
// set under the given outage, plus the destinations it rerouted (in
// ascending order). With an empty outage it returns the original rules
// unchanged (restoring the strategy exactly).
func RepairAvoiding(orig *Routes, down Outage) (rules []Rule, patched []int) {
	if down.Empty() {
		return orig.Rules, nil
	}
	g := orig.Topo
	csr := g.CSR()
	broken := map[int]bool{}
	for i := range orig.Rules {
		r := &orig.Rules[i]
		if !broken[r.Dst] && ruleBroken(g, csr, r, down) {
			broken[r.Dst] = true
		}
	}
	if len(broken) == 0 {
		return orig.Rules, nil
	}
	rules = make([]Rule, 0, len(orig.Rules))
	for _, r := range orig.Rules {
		if !broken[r.Dst] {
			rules = append(rules, r)
		}
	}
	for dst := range broken {
		patched = append(patched, dst)
	}
	sort.Ints(patched)
	for _, dst := range patched {
		rules = appendDegradedTree(rules, g, csr, dst, down)
	}
	return rules, patched
}

// appendDegradedTree emits single-VC shortest-path rules toward dst on
// the surviving subgraph (BFS rooted at dst's switch, skipping down
// links; ties break by vertex ID as in ShortestPath). An unreachable
// destination — its host link cut — emits nothing.
func appendDegradedTree(rules []Rule, g *topology.Graph, csr *topology.CSR, dst int, down Outage) []Rule {
	root := g.HostSwitch(dst)
	if root < 0 {
		return rules
	}
	// The host needs a surviving attachment edge (a multi-homed host
	// may lose one of parallel attachments and keep another).
	hostPort, _ := alivePortTo(csr, root, dst, down)
	if hostPort == 0 {
		return rules
	}
	nv := len(g.Vertices)
	next := make([]int32, nv)
	for i := range next {
		next[i] = -1
	}
	queue := make([]int32, 1, nv)
	next[root] = int32(root)
	queue[0] = int32(root)
	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		lo, hi := csr.Row(v)
		for e := lo; e < hi; e++ {
			o := csr.Nbr[e]
			if g.Vertices[o].Kind != topology.Switch || next[o] >= 0 {
				continue
			}
			if down.Edge[int(csr.Edge[e])] {
				continue
			}
			next[o] = int32(v)
			queue = append(queue, o)
		}
	}
	for sw := 0; sw < nv; sw++ {
		if next[sw] < 0 {
			continue
		}
		var out int
		if sw == root {
			out = hostPort
		} else {
			// The port must ride an edge that is itself alive: with
			// parallel edges the BFS may have admitted the neighbour
			// via the healthy one while the lowest-ID edge is cut.
			out, _ = alivePortTo(csr, sw, int(next[sw]), down)
		}
		if out == 0 {
			continue
		}
		rules = append(rules, Rule{Switch: sw, Dst: dst, Tag: openflow.Any, OutPort: out, NewTag: -1})
	}
	return rules
}

// alivePortTo returns the port and edge ID of a half-edge from vertex
// `from` to neighbour `to` (0, -1 when not adjacent), considering only
// edges that survive the outage. With parallel healthy edges the
// lowest edge ID wins, matching CSR.PortTo.
func alivePortTo(csr *topology.CSR, from, to int, down Outage) (port, edge int) {
	lo, hi := csr.Row(from)
	best := int32(-1)
	for e := lo; e < hi; e++ {
		if int(csr.Nbr[e]) != to || down.Edge[int(csr.Edge[e])] {
			continue
		}
		if best < 0 || csr.Edge[e] < csr.Edge[best] {
			best = e
		}
	}
	if best < 0 {
		return 0, -1
	}
	return int(csr.Port[best]), int(csr.Edge[best])
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
// under the outage — orig itself when nothing is down — and returns the
// churn versus the rules live before. A patch that changes nothing
// leaves the rules, and so the compiled FIB, untouched. orig is never
// aliased.
func (r *Routes) Reroute(orig []Rule, down Outage) (churn int) {
	base := &Routes{Topo: r.Topo, Strategy: r.Strategy, NumVCs: r.NumVCs, Rules: orig}
	rules, _ := RepairAvoiding(base, down)
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
