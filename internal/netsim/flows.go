package netsim

// The flow application layer drives open-loop synthetic traffic:
// individually timed flows injected at absolute simulation times,
// independent of any completion (the datacenter-workload model, in
// contrast to the closed-loop MPI trace replay of app.go). A FlowApp
// never materialises per-op rank programs — one schedule entry per
// flow — so million-flow runs cost O(flows) memory, and it records
// per-flow completion times for FCT analysis.

import (
	"hash/maphash"
	"sort"

	"repro/internal/engine"
)

// Flow is one open-loop transfer. Src and Dst are rank indices into
// the FlowApp's host list (exactly like Op.Peer in trace replay). The
// End/Completed fields are results, written in place by the FlowApp
// that runs the schedule.
type Flow struct {
	Src, Dst int
	Bytes    int
	// Start is the absolute injection time.
	Start Time
	// Tag is the message tag carried on the wire; it must be unique
	// per (Src, Dst) pair so concurrent flows cannot be confused at
	// the receiver's mailbox. Generators use the flow index.
	Tag int

	// End is the completion time at the receiver (valid if Completed).
	End Time
	// Completed reports whether the flow finished delivery.
	Completed bool
}

// DuplicateFlow returns the first flow, in schedule order, that repeats
// an earlier flow's (Src, Dst, Tag), and the first flow with that key;
// or -1, -1. A receiver matches a flow by (src, tag), so two such flows
// would swap their completion records. It keeps each key's first flow
// in an open-addressed table of flow indices, 8 to 16 bytes a flow
// where a map would take about 80.
func DuplicateFlow(flows []Flow) (dup, first int) {
	if len(flows) < 2 {
		return -1, -1
	}
	type key struct{ src, dst, tag int }
	size := 1
	for size < 2*len(flows) {
		size <<= 1
	}
	table := make([]int32, size) // flow index + 1; 0 is empty
	seed := maphash.MakeSeed()
	for i := range flows {
		f := &flows[i]
		h := int(maphash.Comparable(seed, key{f.Src, f.Dst, f.Tag})) & (size - 1)
		for ; table[h] != 0; h = (h + 1) & (size - 1) {
			if g := &flows[table[h]-1]; g.Src == f.Src && g.Dst == f.Dst && g.Tag == f.Tag {
				return i, int(table[h] - 1)
			}
		}
		table[h] = int32(i + 1)
	}
	return -1, -1
}

// FCT returns the flow completion time, or -1 if incomplete.
func (f *Flow) FCT() Time {
	if !f.Completed {
		return -1
	}
	return f.End - f.Start
}

// FlowApp injects an open-loop flow schedule into a network and
// records completions. It writes results into the caller's Flow slice,
// so the schedule can be inspected (and bucketed into FCT statistics)
// after the run.
type FlowApp struct {
	net    *Network
	hosts  []int
	flows  []Flow
	order  []int32 // flow indices sorted by start time
	next   int     // position in order of the next injection
	nDone  int
	last   Time // time of the latest completion
	onDone func(last Time)
}

// NewFlowApp binds a flow schedule to hosts. hosts[i] is the vertex of
// rank i; every flow's Src/Dst must be a valid rank. The flows slice
// is retained and its result fields are written during the run.
func NewFlowApp(n *Network, hosts []int, flows []Flow, onDone func(last Time)) *FlowApp {
	a := &FlowApp{net: n, hosts: hosts, flows: flows, onDone: onDone}
	dup, _ := DuplicateFlow(flows)
	for i := range flows {
		f := &flows[i]
		if f.Src < 0 || f.Src >= len(hosts) || f.Dst < 0 || f.Dst >= len(hosts) {
			panic("netsim: flow rank out of range")
		}
		if f.Src == f.Dst {
			panic("netsim: flow sends to itself")
		}
		if n.Host(hosts[f.Src]) == nil || n.Host(hosts[f.Dst]) == nil {
			panic("netsim: flow host vertex is not a host")
		}
		// The receiver's mailbox matches on (src, tag): a duplicate
		// would silently swap the two flows' completion records.
		if i == dup {
			panic("netsim: duplicate flow (src, dst, tag)")
		}
		f.End, f.Completed = 0, false
	}
	// Injection order is by start time; ties break by flow index so
	// the schedule is deterministic regardless of input order.
	a.order = make([]int32, len(flows))
	for i := range a.order {
		a.order[i] = int32(i)
	}
	sort.SliceStable(a.order, func(x, y int) bool {
		return flows[a.order[x]].Start < flows[a.order[y]].Start
	})
	return a
}

// Start arms the first injection. Only one injection event is pending
// at a time — each injection schedules its successor — so the event
// queue stays O(1) in the flow count.
func (a *FlowApp) Start() { a.armNext() }

// armNext schedules the next pending injection (flows already due
// inject in order at the current time).
func (a *FlowApp) armNext() {
	if a.next >= len(a.order) {
		return
	}
	at := a.flows[a.order[a.next]].Start
	if now := a.net.Sim.Now(); at < now {
		at = now
	}
	a.net.Sim.Schedule(at, a, engine.Event{Kind: evFlowStart, A: int64(a.next)})
}

// OnEvent injects the due flow and chains to the next one, or records
// a delivered flow.
func (a *FlowApp) OnEvent(now Time, ev engine.Event) {
	switch ev.Kind {
	case evFlowStart:
		// Register the completion, a typed event, as the flow is
		// injected: no delivery can precede its send, and the
		// receiver's mailbox then holds in-flight flows only.
		i := a.order[ev.A]
		f := &a.flows[i]
		cont := engine.Callback{H: a, Ev: engine.Event{Kind: evFlowDone, A: int64(i)}}
		a.net.mail.recv(a.net.Sim, a.hosts[f.Dst], a.hosts[f.Src], f.Tag, cont)
		a.net.Host(a.hosts[f.Src]).Send(a.hosts[f.Dst], f.Tag, f.Bytes)
		a.next++
		a.armNext()
	case evFlowDone:
		a.complete(int(ev.A))
	}
}

// complete records one flow's delivery at its destination host.
func (a *FlowApp) complete(i int) {
	f := &a.flows[i]
	if f.Completed {
		return
	}
	f.Completed = true
	f.End = a.net.Sim.Now()
	if f.End > a.last {
		a.last = f.End
	}
	a.nDone++
	if a.nDone == len(a.flows) && a.onDone != nil {
		a.onDone(a.last)
	}
}

// Completed reports how many flows have finished.
func (a *FlowApp) Completed() int { return a.nDone }

// Outstanding reports how many flows have not finished.
func (a *FlowApp) Outstanding() int { return len(a.flows) - a.Completed() }

// LastCompletion returns the time of the latest completed flow (0 when
// none completed) regardless of whether the whole schedule finished —
// the partial-completion ACT a fault run reports when packet loss
// leaves flows incomplete.
func (a *FlowApp) LastCompletion() Time { return a.last }

// ACT returns the time the last flow completed, or -1 while any flow
// is outstanding — the same contract as App.ACT, so the run loop
// treats trace replay and flow schedules uniformly. An empty schedule
// is complete at time 0.
func (a *FlowApp) ACT() Time {
	if a.Completed() < len(a.flows) {
		return -1
	}
	return a.last
}
