// Package faults synthesizes deterministic fault schedules — timed
// link failures and recoveries — and executes them against a running
// netsim fabric.
//
// A Spec is a pure description: one-shot events at absolute simulated
// times plus MTBF/MTTR flap generators whose up/down intervals are
// exponential draws from the same SplitMix64 RNG the loadgen schedules
// use. Schedule(g) expands a spec into a validated, time-sorted event
// list that is byte-identical for equal (spec, topology) inputs across
// runs, platforms, and Go versions — the property the golden-output
// regression harness and the any-worker-count determinism tests pin.
//
// Bind executes a schedule on a network and is the whole fault run: at
// each event's simulated time the fabric state flips
// (netsim.Network.SetLinkDown — a dead link drops the packets queued
// for it and in flight on it into Network.FaultDrops), and the reactive
// controller's repair (§V-2's reactive flow setup applied to failures)
// patches the run's live routes after the spec's latency. Each event's
// Record — repair time, route churn, first delivery after the repair —
// is the run's only per-fault result.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Kind is the fault event type.
type Kind uint8

// Fault event kinds. LinkDown disables a logical edge; LinkUp restores
// it.
const (
	LinkDown Kind = iota
	LinkUp
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault: at simulated time At, logical edge Elem
// changes state.
type Event struct {
	At   netsim.Time
	Kind Kind
	Elem int
}

// String renders the event for logs and digests.
func (e Event) String() string {
	return fmt.Sprintf("%s e%d @%dus", e.Kind, e.Elem, int64(e.At/netsim.Microsecond))
}

// Flap is a repeating failure process on one logical edge: up-times
// are exponential with mean MTBF, outages exponential with mean MTTR.
type Flap struct {
	Link int
	MTBF netsim.Time
	MTTR netsim.Time
}

// Spec describes one fault workload. The zero Spec is valid and empty
// (no faults). Equal specs expand to byte-identical schedules.
type Spec struct {
	// Events are one-shot faults at absolute simulated times.
	Events []Event
	// Flaps are repeating MTBF/MTTR failure processes, expanded up to
	// Horizon.
	Flaps []Flap
	// Horizon bounds flap expansion (required when Flaps is non-empty;
	// events past the horizon are not generated, so a link may end the
	// run down).
	Horizon netsim.Time
	// Seed drives the flap interval draws. Equal seeds reproduce equal
	// schedules.
	Seed int64
	// RepairLatency is the controller's detection + recompute + install
	// delay between a fault taking effect and the repaired routes going
	// live (0 = 500 µs, the reactive flow-setup round trip). Negative
	// disables repair: routes stay stale and traffic toward dead links
	// keeps dropping.
	RepairLatency netsim.Time
}

// DefaultRepairLatency is the detection→install delay used when
// Spec.RepairLatency is zero.
const DefaultRepairLatency = 500 * netsim.Microsecond

// Repair resolves the spec's effective repair latency (< 0 = repair
// disabled).
func (s *Spec) Repair() netsim.Time {
	if s.RepairLatency == 0 {
		return DefaultRepairLatency
	}
	return s.RepairLatency
}

// flapSeed derives an independent RNG stream per flap index so one
// flap's draw count never perturbs another's schedule.
func flapSeed(seed int64, i int) int64 {
	return int64(uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15)
}

// Schedule validates the spec against a topology and expands it into
// the time-sorted event list Bind executes. Ties at equal times keep
// spec order: one-shot events first, then flap streams in declaration
// order.
func (s *Spec) Schedule(g *topology.Graph) ([]Event, error) {
	var out []Event
	for i, ev := range s.Events {
		if err := checkElem(g, ev.Kind, ev.Elem); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		if ev.At < 0 {
			return nil, fmt.Errorf("faults: event %d: negative time %d", i, ev.At)
		}
		out = append(out, ev)
	}
	if len(s.Flaps) > 0 && s.Horizon <= 0 {
		return nil, fmt.Errorf("faults: flaps need a positive Horizon")
	}
	// A link's up/down state is a plain boolean, not a reference count:
	// two independent sources driving the same link would let the
	// earliest Up restore it while the other source still holds it down.
	// One-shot sequences on one link are fine (they are a single ordered
	// script); a flap must own its link exclusively.
	owned := map[int]bool{}
	for _, ev := range s.Events {
		owned[ev.Elem] = true
	}
	for i, fl := range s.Flaps {
		if owned[fl.Link] {
			return nil, fmt.Errorf("faults: flap %d targets a link already driven by another event source", i)
		}
		owned[fl.Link] = true
	}
	for i, fl := range s.Flaps {
		if err := checkElem(g, LinkDown, fl.Link); err != nil {
			return nil, fmt.Errorf("faults: flap %d: %w", i, err)
		}
		if fl.MTBF <= 0 || fl.MTTR <= 0 {
			return nil, fmt.Errorf("faults: flap %d: MTBF and MTTR must be positive", i)
		}
		rng := loadgen.NewRNG(flapSeed(s.Seed, i))
		t := netsim.Time(0)
		for {
			t += expDraw(rng, fl.MTBF)
			if t > s.Horizon {
				break
			}
			out = append(out, Event{At: t, Kind: LinkDown, Elem: fl.Link})
			t += expDraw(rng, fl.MTTR)
			if t > s.Horizon {
				break
			}
			out = append(out, Event{At: t, Kind: LinkUp, Elem: fl.Link})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}

// expDraw samples an exponential interval with the given mean, floored
// at one picosecond so flap streams always advance.
func expDraw(rng *loadgen.RNG, mean netsim.Time) netsim.Time {
	d := netsim.Time(rng.Exp() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// checkElem validates an event target against the topology.
func checkElem(g *topology.Graph, k Kind, elem int) error {
	if k != LinkDown && k != LinkUp {
		return fmt.Errorf("unknown fault kind %d", k)
	}
	if elem < 0 || elem >= len(g.Edges) {
		return fmt.Errorf("no edge %d in topology %q", elem, g.Name)
	}
	return nil
}

// Record is one scheduled fault's whole lifecycle: the event and, as
// the run executes it, its repair and reconvergence.
type Record struct {
	Event
	// RepairAt is when this fault's repaired routes went live (-1 when
	// repair is disabled or the run ended first).
	RepairAt netsim.Time
	// FirstDeliveryAfter is the first payload delivery at or after
	// RepairAt (-1 if none landed).
	FirstDeliveryAfter netsim.Time
	// RulesChanged is the repair's route churn: rules added plus rules
	// removed versus the rules live before it.
	RulesChanged int
}

// Reconvergence returns the fault→first-repaired-delivery time, or -1
// when the fabric never delivered after the repair.
func (r *Record) Reconvergence() netsim.Time {
	if r.RepairAt < 0 || r.FirstDeliveryAfter < 0 {
		return -1
	}
	return r.FirstDeliveryAfter - r.At
}

// Bind arms a schedule on a network and returns its records, one per
// event in schedule order, which fill in as the simulation runs. Call
// before the simulation runs.
//
// Each event flips the fabric state at its simulated time (the
// port-status change the controller reads); latency later — detection,
// recompute, install — the repair patches live around the links the
// fabric reports down as of then (routing.Routes.Reroute over
// netsim.Network.LinkIsDown: a later fault already folded in is
// re-confirmed with zero churn), stamps this event's record and awaits
// the first delivery after it. A nil live disables repair: routes stay
// stale and traffic toward dead links keeps dropping. live must be
// private to the run, since repairs mutate it mid-simulation; the
// fabric's RouteForwarder re-fetches the memoized FIB, so a repair that
// changes rules recompiles it once.
func Bind(net *netsim.Network, sched []Event, live *routing.Routes, latency netsim.Time) []Record {
	recs := make([]Record, len(sched))
	var orig []routing.Rule // the strategy's rules, the repair baseline
	if live != nil {
		orig = append([]routing.Rule(nil), live.Rules...)
	}
	down := net.LinkIsDown
	for i, ev := range sched {
		rec := &recs[i]
		*rec = Record{Event: ev, RepairAt: -1, FirstDeliveryAfter: -1}
		net.Sim.At(ev.At, func() {
			net.SetLinkDown(ev.Elem, ev.Kind == LinkDown)
			if live == nil {
				return
			}
			net.Sim.After(latency, func() {
				rec.RepairAt = net.Sim.Now()
				rec.RulesChanged = live.Reroute(orig, down)
				net.AwaitDelivery(func(now netsim.Time) { rec.FirstDeliveryAfter = now })
			})
		})
	}
	return recs
}

// PickCoreEdges deterministically samples k distinct switch-switch
// edges using the seeded RNG (k is clamped to the candidate count).
func PickCoreEdges(g *topology.Graph, k int, seed int64) []int {
	cand := g.SwitchSwitchEdges()
	rng := loadgen.NewRNG(seed)
	perm := rng.Perm(len(cand))
	if k > len(cand) {
		k = len(cand)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cand[perm[i]]
	}
	sort.Ints(out)
	return out
}
