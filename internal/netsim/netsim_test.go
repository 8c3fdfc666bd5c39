package netsim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/routing"
	"repro/internal/topology"
)

// closure runs a func as an engine handler.
type closure func()

func (f closure) OnEvent(Time, engine.Event) { f() }

// recvThen registers cont to run when a message with (src, tag)
// completes delivery at h (matching is MPI-style, counted per key).
func recvThen(h *Host, src, tag int, cont func()) {
	h.net.mail.recv(h.net.Sim, h.vertex, src, tag, engine.Callback{H: closure(cont)})
}

// pingpongRTT runs an IMB-style Pingpong between hosts a and b — reps
// round trips of a message of the given payload size (§VI-B1's latency
// methodology) — and returns the mean RTT, failing tb unless every
// round trip completed.
func pingpongRTT(tb testing.TB, n *Network, a, b int, bytes, reps int) Time {
	tb.Helper()
	ha, hb := n.Host(a), n.Host(b)
	const tag = 7001

	// Responder: echo forever.
	var echo func()
	echo = func() {
		recvThen(hb, a, tag, func() {
			hb.Send(a, tag, bytes)
			echo()
		})
	}
	echo()

	var start, sum Time
	done := 0
	var ping func()
	ping = func() {
		if done >= reps {
			return
		}
		start = n.Sim.Now()
		ha.Send(b, tag, bytes)
		recvThen(ha, b, tag, func() {
			sum += n.Sim.Now() - start
			done++
			ping()
		})
	}
	n.Sim.After(0, ping)
	n.Sim.Run(0)
	if done != reps {
		tb.Fatalf("pingpong completed %d of %d round trips", done, reps)
	}
	return sum / Time(reps)
}

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.At(10, func() { got = append(got, 11) }) // same time: scheduling order
	s.Run(0)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("final time = %d", s.Now())
	}
}

func TestSimRunLimit(t *testing.T) {
	s := NewSim()
	fired := false
	s.At(100, func() { fired = true })
	s.Run(50)
	if fired {
		t.Error("event beyond limit fired")
	}
	if s.Now() != 50 {
		t.Errorf("now = %d, want 50", s.Now())
	}
}

func buildLine(t testing.TB, n, hostsPer int, cfg Config) (*Network, *topology.Graph) {
	t.Helper()
	g := topology.Line(n, hostsPer)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, NewRouteForwarder(routes), cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

func TestPingpongLatencyScalesWithHops(t *testing.T) {
	cfg := DefaultConfig()
	// RTT over more switches must be larger, roughly linearly.
	rtt := func(switches int) Time {
		net, g := buildLine(t, switches, 1, cfg)
		hosts := g.Hosts()
		return pingpongRTT(t, net, hosts[0], hosts[switches-1], 64, 20)
	}
	r2, r8 := rtt(2), rtt(8)
	if r8 <= r2 {
		t.Fatalf("8-switch RTT %v <= 2-switch RTT %v", r8, r2)
	}
	// The paper: 10-hop RTT below 10µs for small messages; our 8-switch
	// chain should land in single-digit microseconds too.
	if r8 > 40*Microsecond {
		t.Errorf("8-switch RTT = %v, implausibly large", r8)
	}
	if r2 < 1*Microsecond {
		t.Errorf("2-switch RTT = %v, implausibly small", r2)
	}
}

func TestPingpongLatencyGrowsWithSize(t *testing.T) {
	cfg := DefaultConfig()
	net, g := buildLine(t, 8, 1, cfg)
	hosts := g.Hosts()
	small := pingpongRTT(t, net, hosts[0], hosts[7], 64, 10)
	net2, g2 := buildLine(t, 8, 1, cfg)
	hosts2 := g2.Hosts()
	big := pingpongRTT(t, net2, hosts2[0], hosts2[7], 1<<20, 5)
	if big <= small {
		t.Fatalf("1MB RTT %v <= 64B RTT %v", big, small)
	}
	// 1MB at 10Gbps serialises in 800µs one way; RTT must exceed 1.6ms.
	if big < 1600*Microsecond {
		t.Errorf("1MB RTT = %v, below serialisation floor", big)
	}
}

func TestSingleFlowSaturatesLink(t *testing.T) {
	cfg := DefaultConfig()
	net, g := buildLine(t, 2, 1, cfg)
	hosts := g.Hosts()
	const bytes = 10 << 20 // 10 MiB
	start := net.Sim.Now()
	net.Host(hosts[0]).Send(hosts[1], 1, bytes)
	var done Time
	recvThen(net.Host(hosts[1]), hosts[0], 1, func() { done = net.Sim.Now() })
	net.Sim.Run(0)
	if done == 0 {
		t.Fatal("message never delivered")
	}
	gbps := float64(bytes*8) / (done - start).Seconds() / 1e9
	if gbps < 8.5 || gbps > 10.01 {
		t.Errorf("goodput = %.2f Gbps, want near 10", gbps)
	}
}

func TestPFCPreventsDropsInIncast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFC = true
	net, g := buildLine(t, 8, 1, cfg)
	hosts := g.Hosts()
	// Everyone blasts host 3 (node 4), Fig. 12 style, with RoCE.
	for i, h := range hosts {
		if i == 3 {
			continue
		}
		net.Host(h).Send(hosts[3], 1, 2<<20)
	}
	net.Sim.Run(0)
	if net.TotalDrops != 0 {
		t.Errorf("PFC on: %d drops, want 0", net.TotalDrops)
	}
	if net.PausesSent == 0 {
		t.Error("incast produced no PFC pauses")
	}
	if net.Host(hosts[3]).DeliveredBytes != int64(7*(2<<20)) {
		t.Errorf("delivered %d bytes, want %d", net.Host(hosts[3]).DeliveredBytes, 7*(2<<20))
	}
}

func TestLossyIncastDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFC = false
	net, g := buildLine(t, 8, 1, cfg)
	hosts := g.Hosts()
	for i, h := range hosts {
		if i == 3 {
			continue
		}
		net.Host(h).Send(hosts[3], 1, 2<<20)
	}
	net.Sim.Run(0)
	if net.TotalDrops == 0 {
		t.Error("lossy incast produced no drops")
	}
}

func TestTCPIncastSharesBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFC = false
	net, g := buildLine(t, 8, 1, cfg)
	hosts := g.Hosts()
	var conns []*TCPConn
	for i, h := range hosts {
		if i == 3 {
			continue
		}
		conns = append(conns, net.StartTCP(h, hosts[3], -1, nil))
	}
	net.Sim.Run(200 * Millisecond)
	var total float64
	for _, c := range conns {
		gbps := float64(c.RcvBytes*8) / net.Sim.Now().Seconds() / 1e9
		total += gbps
		if c.RcvBytes == 0 {
			t.Error("a TCP flow starved completely")
		}
	}
	if total < 6 || total > 10.5 {
		t.Errorf("aggregate TCP goodput = %.2f Gbps, want near link rate", total)
	}
}

func TestTCPFiniteFlowCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFC = false
	net, g := buildLine(t, 3, 1, cfg)
	hosts := g.Hosts()
	var fct Time
	net.StartTCP(hosts[0], hosts[2], 1<<20, func(d Time) { fct = d })
	net.Sim.Run(time500ms())
	if fct == 0 {
		t.Fatal("TCP flow never completed")
	}
	// 1 MiB at 10 Gbps is ~0.84 ms minimum.
	if fct < 800*Microsecond || fct > 100*Millisecond {
		t.Errorf("FCT = %v, out of plausible range", fct)
	}
}

func time500ms() Time { return 500 * Millisecond }

func TestDCQCNReducesPauses(t *testing.T) {
	run := func(cc string) int64 {
		cfg := DefaultConfig()
		cfg.PFC = true
		cfg.CC = cc
		net, g := buildLine(t, 8, 1, cfg)
		hosts := g.Hosts()
		for i, h := range hosts {
			if i == 3 {
				continue
			}
			net.Host(h).Send(hosts[3], 1, 4<<20)
		}
		net.Sim.Run(0)
		if net.TotalDrops != 0 {
			t.Fatalf("lossless run dropped %d", net.TotalDrops)
		}
		return net.PausesSent
	}
	off := run("")
	on := run(CCDCQCN)
	if on >= off {
		t.Errorf("DCQCN on: %d pauses, off: %d; DCQCN should delay PFC (paper §VI-E)", on, off)
	}
}

func TestAppAlltoallCompletes(t *testing.T) {
	cfg := DefaultConfig()
	g := topology.Torus2D(3, 3, 1)
	routes, err := routing.TorusClue{Dims: 2}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, NewRouteForwarder(routes), cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	nRanks := len(hosts)
	programs := make([][]Op, nRanks)
	for r := 0; r < nRanks; r++ {
		var prog []Op
		for p := 0; p < nRanks; p++ {
			if p != r {
				prog = append(prog, Op{Kind: OpSend, Peer: p, Bytes: 64 * 1024, MTag: 100 + r})
			}
		}
		for p := 0; p < nRanks; p++ {
			if p != r {
				prog = append(prog, Op{Kind: OpRecv, Peer: p, MTag: 100 + p})
			}
		}
		programs[r] = prog
	}
	app := NewApp(net, hosts, programs, nil)
	app.Start()
	net.Sim.Run(0)
	act := app.ACT()
	if act <= 0 {
		t.Fatal("alltoall did not complete")
	}
	// 9 ranks x 8 x 64KB: per-host egress 512KB at 10 Gbps is ~410 µs
	// minimum; with contention the ACT lands in the ms range.
	if act < 400*Microsecond || act > 100*Millisecond {
		t.Errorf("ACT = %v, out of plausible range", act)
	}
	if net.TotalDrops != 0 {
		t.Errorf("lossless alltoall dropped %d packets", net.TotalDrops)
	}
}

func TestComputeOpAdvancesTime(t *testing.T) {
	cfg := DefaultConfig()
	net, g := buildLine(t, 2, 1, cfg)
	hosts := g.Hosts()
	programs := [][]Op{
		{{Kind: OpCompute, Dur: 5 * Millisecond}, {Kind: OpSend, Peer: 1, Bytes: 100, MTag: 1}},
		{{Kind: OpRecv, Peer: 0, MTag: 1}},
	}
	app := NewApp(net, hosts[:2], programs, nil)
	app.Start()
	net.Sim.Run(0)
	if act := app.ACT(); act < 5*Millisecond {
		t.Errorf("ACT = %v, want >= 5ms compute", act)
	}
}

func TestSDTSharedCrossbarOverheadSmall(t *testing.T) {
	// The Fig. 11 property in miniature: SDT (one shared crossbar +
	// per-hop extra) must add positive but tiny latency vs the full
	// testbed, shrinking relatively as messages grow.
	g := topology.Line(8, 1)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	rtt := func(sdt bool, bytes int) Time {
		var xof func(v int) int
		if sdt {
			xof = func(v int) int { return 0 } // all sub-switches on one physical switch
		}
		net, err := NewNetwork(g, NewRouteForwarder(routes), cfg, xof, sdt)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		return pingpongRTT(t, net, hosts[0], hosts[7], bytes, 10)
	}
	for _, bytes := range []int{64, 4096, 1 << 20} {
		full := rtt(false, bytes)
		sdt := rtt(true, bytes)
		if sdt <= full {
			t.Errorf("bytes=%d: SDT RTT %v <= full %v; projection must cost something", bytes, sdt, full)
		}
		over := float64(sdt-full) / float64(full)
		if over > 0.02 {
			t.Errorf("bytes=%d: overhead %.3f%% exceeds the paper's 2%% bound", bytes, over*100)
		}
	}
	// Relative overhead decreases with message size.
	small := float64(rtt(true, 64)-rtt(false, 64)) / float64(rtt(false, 64))
	large := float64(rtt(true, 1<<20)-rtt(false, 1<<20)) / float64(rtt(false, 1<<20))
	if large >= small {
		t.Errorf("overhead grew with size: %.4f%% -> %.4f%%", small*100, large*100)
	}
}

func TestTableMissDrops(t *testing.T) {
	g := topology.Line(2, 1)
	routes, _ := routing.ShortestPath{}.Compute(g)
	cfg := DefaultConfig()
	net, err := NewNetwork(g, NewRouteForwarder(routes), cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	// Destination 9999 has no rules anywhere.
	net.Host(hosts[0]).Send(9999, 1, 100)
	// Sending to an unknown host: the injection switch misses.
	net.Sim.Run(0)
	if net.TotalDrops == 0 {
		t.Error("packet to unknown destination not dropped")
	}
}

func TestLinkLoadsTelemetry(t *testing.T) {
	cfg := DefaultConfig()
	net, g := buildLine(t, 3, 1, cfg)
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[2], 1, 1<<20)
	net.Sim.Run(0)
	loads := net.LinkLoads()
	nonzero := 0
	for _, v := range loads {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < 4 { // 2 host links + 2 switch links on the path
		t.Errorf("only %d loaded edges, want >= 4", nonzero)
	}
}

// TestUGALOnMeasuredLoads feeds a finished Dragonfly run's measured
// link loads to UGAL active routing, as the §VI-E experiment does: the
// routes it derives must stay deadlock-free.
func TestUGALOnMeasuredLoads(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	routes, err := routing.DragonflyMinimal{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, NewRouteForwarder(routes), DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Drive traffic between groups 0 and 1 to load their global link.
	var g0, g1 []int
	for _, h := range g.Hosts() {
		switch g.Vertices[g.HostSwitch(h)].Coord[0] {
		case 0:
			g0 = append(g0, h)
		case 1:
			g1 = append(g1, h)
		}
	}
	for i := range g0 {
		net.Host(g0[i]).Send(g1[i%len(g1)], 5, 1<<20)
	}
	net.Sim.Run(0)
	loads := net.LinkLoads()
	var total float64
	for _, v := range loads {
		total += v
	}
	if total == 0 {
		t.Fatal("the run measured no link load")
	}
	active, err := routing.DragonflyUGAL{Loads: loads, Bias: 1}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.VerifyDeadlockFree(active); err != nil {
		t.Errorf("active routing on measured loads not deadlock-free: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Time, int64) {
		cfg := DefaultConfig()
		cfg.CC = CCDCQCN
		net, g := buildLine(t, 8, 1, cfg)
		hosts := g.Hosts()
		for i, h := range hosts {
			if i == 3 {
				continue
			}
			net.Host(h).Send(hosts[3], 1, 1<<20)
		}
		end := net.Sim.Run(0)
		return end, net.Sim.Events()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

func BenchmarkPingpong64B(b *testing.B) {
	g := topology.Line(8, 1)
	routes, _ := routing.ShortestPath{}.Compute(g)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _ := NewNetwork(g, NewRouteForwarder(routes), cfg, nil, false)
		hosts := g.Hosts()
		pingpongRTT(b, net, hosts[0], hosts[7], 64, 10)
	}
}

func BenchmarkIncastPFC(b *testing.B) {
	g := topology.Line(8, 1)
	routes, _ := routing.ShortestPath{}.Compute(g)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _ := NewNetwork(g, NewRouteForwarder(routes), cfg, nil, false)
		hosts := g.Hosts()
		for j, h := range hosts {
			if j == 3 {
				continue
			}
			net.Host(h).Send(hosts[3], 1, 1<<20)
		}
		net.Sim.Run(0)
	}
}

// TestAwaitDelivery: armed waiters fire once, together, at the next
// payload delivery and the list empties; a waiter armed afterwards — or
// by a waiter while it runs — fires at a later delivery only.
func TestAwaitDelivery(t *testing.T) {
	g := topology.Line(2, 1)
	routes, _ := routing.ShortestPath{}.Compute(g)
	net, err := NewNetwork(g, NewRouteForwarder(routes), DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	type fire struct {
		at  Time
		pkt int64 // DeliveredPkt when the waiter ran
	}
	var a, b, c, d []fire
	waiter := func(into *[]fire) func(Time) {
		return func(now Time) { *into = append(*into, fire{now, net.DeliveredPkt}) }
	}
	net.AwaitDelivery(func(now Time) {
		waiter(&a)(now)
		net.AwaitDelivery(waiter(&d))
	})
	net.AwaitDelivery(waiter(&b))
	net.Host(hosts[0]).Send(hosts[1], 1, 8<<10)
	var armedAt int64
	net.Sim.At(Millisecond, func() {
		if len(net.awaiting) != 0 {
			t.Errorf("%d waiters left after the deliveries", len(net.awaiting))
		}
		armedAt = net.DeliveredPkt
		net.AwaitDelivery(waiter(&c))
		net.Host(hosts[0]).Send(hosts[1], 1, 8<<10)
	})
	net.Sim.Run(0)

	if len(a) != 1 || len(b) != 1 || a[0] != b[0] || a[0].pkt != 1 {
		t.Fatalf("first waiters fired %v and %v, want once each at delivery 1", a, b)
	}
	if len(d) != 1 || d[0].pkt != 2 || d[0].at <= a[0].at {
		t.Fatalf("waiter armed while firing ran %v, want once at delivery 2", d)
	}
	if armedAt < 2 || len(c) != 1 || c[0].pkt != armedAt+1 || c[0].at <= Millisecond {
		t.Fatalf("late waiter ran %v (armed after %d deliveries), want once at the next", c, armedAt)
	}
	if len(net.awaiting) != 0 {
		t.Fatalf("%d waiters left at the end", len(net.awaiting))
	}
}
