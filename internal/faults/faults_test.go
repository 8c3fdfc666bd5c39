package faults

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

func TestScheduleDeterminism(t *testing.T) {
	g := topology.FatTree(4)
	edges := g.SwitchSwitchEdges()
	spec := &Spec{
		Events: []Event{{At: 5 * netsim.Microsecond, Kind: LinkDown, Elem: edges[3]}},
		Flaps: []Flap{
			{Link: edges[0], MTBF: 200 * netsim.Microsecond, MTTR: 50 * netsim.Microsecond},
			{Link: edges[1], MTBF: 300 * netsim.Microsecond, MTTR: 20 * netsim.Microsecond},
			{Link: edges[2], MTBF: netsim.Millisecond, MTTR: 100 * netsim.Microsecond},
		},
		Horizon: 5 * netsim.Millisecond,
		Seed:    42,
	}
	a, err := spec.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different schedules")
	}
	if len(a) < 10 {
		t.Fatalf("expected a dense flap schedule, got %d events", len(a))
	}
	// Sorted by time.
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule out of order at %d: %v after %v", i, a[i], a[i-1])
		}
	}
	// Per link, events alternate down/up starting with down.
	state := map[int]Kind{}
	for _, ev := range a {
		prev, seen := state[ev.Elem]
		switch ev.Kind {
		case LinkDown:
			if seen && prev == LinkDown {
				t.Fatalf("double down for %v", ev)
			}
		case LinkUp:
			if !seen || prev != LinkDown {
				t.Fatalf("up without down for %v", ev)
			}
		}
		state[ev.Elem] = ev.Kind
	}
	// A different seed must produce a different flap schedule.
	spec2 := *spec
	spec2.Seed = 43
	c, err := spec2.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Horizon bounds every event.
	for _, ev := range c {
		if ev.At > spec.Horizon {
			t.Fatalf("event %v past horizon", ev)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	g := topology.FatTree(4)
	cases := []Spec{
		{Events: []Event{{At: 1, Kind: LinkDown, Elem: len(g.Edges)}}},
		{Events: []Event{{At: 1, Kind: LinkUp, Elem: -1}}},
		{Events: []Event{{At: -1, Kind: LinkDown, Elem: 0}}},
		{Events: []Event{{At: 1, Kind: Kind(99), Elem: 0}}},
		{Flaps: []Flap{{Link: 0, MTBF: netsim.Millisecond, MTTR: netsim.Microsecond}}}, // no horizon
		{Flaps: []Flap{{Link: 0, MTBF: 0, MTTR: netsim.Microsecond}}, Horizon: netsim.Millisecond},
		{Flaps: []Flap{{Link: len(g.Edges), MTBF: 1, MTTR: 1}}, Horizon: netsim.Millisecond},
	}
	for i, s := range cases {
		if _, err := s.Schedule(g); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	// The zero spec is valid and empty.
	var empty Spec
	sched, err := empty.Schedule(g)
	if err != nil || len(sched) != 0 {
		t.Fatalf("zero spec: sched=%v err=%v", sched, err)
	}
}

// TestScheduleRejectsSharedElements: link state is a boolean, not a
// reference count, so a flap may not share its link with another flap
// or with one-shot events — the earliest Up would restore a link
// another source still holds down.
func TestScheduleRejectsSharedElements(t *testing.T) {
	g := topology.FatTree(4)
	horizon := 10 * netsim.Millisecond
	flap := func(link int, mtbf netsim.Time) Flap {
		return Flap{Link: link, MTBF: mtbf, MTTR: netsim.Microsecond}
	}
	conflicting := []Spec{
		{ // flap + one-shot on the same link
			Events:  []Event{{At: netsim.Millisecond, Kind: LinkDown, Elem: 0}},
			Flaps:   []Flap{flap(0, netsim.Millisecond)},
			Horizon: horizon,
		},
		{ // two flaps on the same link
			Flaps:   []Flap{flap(1, netsim.Millisecond), flap(1, 2*netsim.Millisecond)},
			Horizon: horizon,
		},
	}
	for i, s := range conflicting {
		if _, err := s.Schedule(g); err == nil {
			t.Errorf("case %d: shared-link spec accepted", i)
		}
	}
	// One-shot sequences on one link are not a conflict, nor are flaps
	// on distinct links.
	ok := Spec{
		Events: []Event{
			{At: netsim.Millisecond, Kind: LinkDown, Elem: 0},
			{At: 2 * netsim.Millisecond, Kind: LinkUp, Elem: 0},
		},
		Flaps:   []Flap{flap(1, netsim.Millisecond), flap(2, netsim.Millisecond)},
		Horizon: horizon,
	}
	if _, err := ok.Schedule(g); err != nil {
		t.Fatalf("distinct-link spec rejected: %v", err)
	}
}

func TestPickCoreEdges(t *testing.T) {
	g := topology.FatTree(4)
	picked := PickCoreEdges(g, 4, 7)
	if len(picked) != 4 {
		t.Fatalf("got %d edges", len(picked))
	}
	seen := map[int]bool{}
	for _, e := range picked {
		if seen[e] {
			t.Fatalf("edge %d picked twice", e)
		}
		seen[e] = true
		edge := g.Edges[e]
		if g.Vertices[edge.A].Kind != topology.Switch || g.Vertices[edge.B].Kind != topology.Switch {
			t.Fatalf("edge %d is not switch-switch", e)
		}
	}
	again := PickCoreEdges(g, 4, 7)
	for i := range picked {
		if picked[i] != again[i] {
			t.Fatal("PickCoreEdges not deterministic")
		}
	}
	if got := PickCoreEdges(g, 1<<20, 7); len(got) != len(g.SwitchSwitchEdges()) {
		t.Fatalf("overshoot clamp: got %d want %d", len(got), len(g.SwitchSwitchEdges()))
	}
}

// TestBindDegradesFabric runs a tiny fabric with a cut link and checks
// the fault drops land and, with repair disabled, the records stay
// unrepaired.
func TestBindDegradesFabric(t *testing.T) {
	g := topology.New("pair")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	g.Connect(s1, s2)
	g.Connect(s1, h1)
	g.Connect(s2, h2)
	core := g.EdgeBetween(s1, s2)

	build := func() *netsim.Network {
		cfg := netsim.DefaultConfig()
		net, err := netsim.NewNetwork(g, lookupFwd{g}, cfg, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	// send arms a 32 KiB message h1 -> h2 that sets done on delivery.
	var done bool
	send := func(net *netsim.Network) *netsim.App {
		done = false
		return netsim.NewApp(net, []int{h1, h2}, [][]netsim.Op{
			{{Kind: netsim.OpSend, Peer: 1, Bytes: 32 << 10, MTag: 1}},
			{{Kind: netsim.OpRecv, Peer: 0, MTag: 1}},
		}, func(netsim.Time) { done = true })
	}

	// Healthy run: the message arrives.
	net := build()
	send(net).Start()
	net.Sim.Run(0)
	if !done || net.FaultDrops != 0 {
		t.Fatalf("healthy: done=%v faultdrops=%d", done, net.FaultDrops)
	}

	// Cut the core link before any packet: everything fault-drops.
	net = build()
	sched, err := (&Spec{Events: []Event{{At: 0, Kind: LinkDown, Elem: core}}}).Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	recs := Bind(net, sched, nil, DefaultRepairLatency)
	send(net).Start()
	net.Sim.Run(0)
	if done {
		t.Fatal("message delivered across a dead link")
	}
	if net.FaultDrops == 0 {
		t.Fatal("no fault drops counted")
	}
	if len(recs) != 1 || recs[0].Event != sched[0] || recs[0].RepairAt != -1 || recs[0].Reconvergence() != -1 {
		t.Fatalf("records %+v", recs)
	}

	// Down then up before traffic: delivery works and the counters stay
	// clean.
	net = build()
	sched, err = (&Spec{Events: []Event{
		{At: 0, Kind: LinkDown, Elem: core},
		{At: netsim.Microsecond, Kind: LinkUp, Elem: core},
	}}).Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	Bind(net, sched, nil, 0)
	net.Sim.At(2*netsim.Microsecond, send(net).Start)
	net.Sim.Run(0)
	if !done || net.FaultDrops != 0 {
		t.Fatalf("after recovery: done=%v faultdrops=%d", done, net.FaultDrops)
	}
}

// lookupFwd is a minimal shortest-path forwarder for the tiny fixture.
type lookupFwd struct{ g *topology.Graph }

func (f lookupFwd) Forward(sw, inPort int, pkt *netsim.Packet) (int, int, bool) {
	csr := f.g.CSR()
	// Destination attached here?
	if p := csr.PortTo(sw, pkt.Dst); p != 0 {
		return p, pkt.Tag, true
	}
	// One switch hop toward the destination's switch.
	root := f.g.HostSwitch(pkt.Dst)
	if p := csr.PortTo(sw, root); p != 0 {
		return p, pkt.Tag, true
	}
	return 0, 0, false
}
