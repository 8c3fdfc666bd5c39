package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/topology"
)

func TestZeroByteMessageDelivers(t *testing.T) {
	net, g := buildLine(t, 2, 1, DefaultConfig())
	hosts := g.Hosts()
	done := false
	net.Host(hosts[0]).Send(hosts[1], 42, 0)
	recvThen(net.Host(hosts[1]), hosts[0], 42, func() { done = true })
	net.Sim.Run(0)
	if !done {
		t.Fatal("zero-byte message never delivered")
	}
}

func TestMessagesOrderedPerQP(t *testing.T) {
	// Messages on one QP (same src/dst) must complete in send order.
	net, g := buildLine(t, 2, 1, DefaultConfig())
	hosts := g.Hosts()
	var order []int
	for i := 0; i < 5; i++ {
		tag := 100 + i
		net.Host(hosts[0]).Send(hosts[1], tag, 64*1024)
	}
	for i := 0; i < 5; i++ {
		tag := 100 + i
		idx := i
		recvThen(net.Host(hosts[1]), hosts[0], tag, func() { order = append(order, idx) })
	}
	net.Sim.Run(0)
	if len(order) != 5 {
		t.Fatalf("delivered %d of 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v, want FIFO", order)
		}
	}
}

func TestBidirectionalFullDuplex(t *testing.T) {
	// Full-duplex links: simultaneous opposite transfers must each run
	// near line rate (no shared-medium artefact).
	net, g := buildLine(t, 2, 1, DefaultConfig())
	hosts := g.Hosts()
	const bytes = 4 << 20
	var doneA, doneB Time
	net.Host(hosts[0]).Send(hosts[1], 1, bytes)
	net.Host(hosts[1]).Send(hosts[0], 2, bytes)
	recvThen(net.Host(hosts[1]), hosts[0], 1, func() { doneA = net.Sim.Now() })
	recvThen(net.Host(hosts[0]), hosts[1], 2, func() { doneB = net.Sim.Now() })
	net.Sim.Run(0)
	if doneA == 0 || doneB == 0 {
		t.Fatal("transfers incomplete")
	}
	// Each direction alone takes ~3.4 ms; full duplex should not double it.
	limit := 5 * Millisecond
	if doneA > limit || doneB > limit {
		t.Errorf("duplex transfers too slow: %v / %v", doneA, doneB)
	}
}

func TestManyQPFanOut(t *testing.T) {
	// One host sending to 7 receivers: egress serialises, everything
	// arrives, aggregate equals what one 10G NIC can emit.
	net, g := buildLine(t, 8, 1, DefaultConfig())
	hosts := g.Hosts()
	const per = 1 << 20
	for i := 1; i < 8; i++ {
		net.Host(hosts[0]).Send(hosts[i], 9, per)
	}
	end := net.Sim.Run(0)
	var total int64
	for i := 1; i < 8; i++ {
		total += net.Host(hosts[i]).DeliveredBytes
	}
	if total != 7*per {
		t.Fatalf("delivered %d, want %d", total, 7*per)
	}
	// 7 MiB through one 10G NIC needs at least ~5.9 ms.
	if end < 5*Millisecond {
		t.Errorf("fan-out finished implausibly fast: %v", end)
	}
}

func TestPFCHysteresis(t *testing.T) {
	// Xoff must exceed Xon or the fabric flaps; with defaults the
	// incast must pause and then fully resume (all bytes delivered).
	cfg := DefaultConfig()
	if cfg.PFCXoff <= cfg.PFCXon {
		t.Fatal("default thresholds not hysteretic")
	}
	net, g := buildLine(t, 4, 2, cfg)
	hosts := g.Hosts()
	target := hosts[0]
	var sent int64
	for _, h := range hosts[1:] {
		net.Host(h).Send(target, 5, 3<<20)
		sent += 3 << 20
	}
	net.Sim.Run(0)
	if net.PausesSent == 0 {
		t.Error("no pauses under 7:1 incast")
	}
	if got := net.Host(target).DeliveredBytes; got != sent {
		t.Errorf("delivered %d of %d after pause/resume cycles", got, sent)
	}
}

func TestCrossbarTransitsCounted(t *testing.T) {
	net, g := buildLine(t, 3, 1, DefaultConfig())
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[2], 1, 4096+100) // 2 packets
	net.Sim.Run(0)
	total := int64(0)
	for _, v := range g.Switches() {
		total += net.Switch(v).crossbar.Transits
	}
	// 2 packets x 3 switches.
	if total != 6 {
		t.Errorf("crossbar transits = %d, want 6", total)
	}
}

func TestConfigVariantsStillDeliver(t *testing.T) {
	base := DefaultConfig()
	variants := []func(*Config){
		func(c *Config) { c.CutThrough = false },
		func(c *Config) { c.PFC = false },
		func(c *Config) { c.ECN = true; c.CC = CCDCQCN },
		func(c *Config) { c.MTU = 1500 },
		func(c *Config) { c.PropDelay = 5 * Microsecond },
	}
	for i, v := range variants {
		cfg := base
		v(&cfg)
		net, g := buildLine(t, 4, 1, cfg)
		hosts := g.Hosts()
		net.Host(hosts[0]).Send(hosts[3], 1, 1<<20)
		net.Sim.Run(0)
		if net.Host(hosts[3]).DeliveredBytes != 1<<20 {
			t.Errorf("variant %d: delivered %d", i, net.Host(hosts[3]).DeliveredBytes)
		}
	}
}

// Property: any message size and hop count delivers exactly its bytes
// on a lossless line.
func TestQuickDeliveryExact(t *testing.T) {
	f := func(szRaw uint32, hopsRaw uint8) bool {
		size := int(szRaw % (1 << 20))
		hops := 2 + int(hopsRaw)%6
		g := topology.Line(hops, 1)
		routes, err := routing.ShortestPath{}.Compute(g)
		if err != nil {
			return false
		}
		net, err := NewNetwork(g, NewRouteForwarder(routes), DefaultConfig(), nil, false)
		if err != nil {
			return false
		}
		hosts := g.Hosts()
		net.Host(hosts[0]).Send(hosts[hops-1], 1, size)
		net.Sim.Run(0)
		return net.Host(hosts[hops-1]).DeliveredBytes == int64(size) && net.TotalDrops == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: RTT is monotone non-decreasing in message size on a fixed
// path.
func TestQuickRTTMonotoneInSize(t *testing.T) {
	g := topology.Line(4, 1)
	routes, _ := routing.ShortestPath{}.Compute(g)
	rtt := func(bytes int) Time {
		net, err := NewNetwork(g, NewRouteForwarder(routes), DefaultConfig(), nil, false)
		if err != nil {
			return -1
		}
		hosts := g.Hosts()
		return pingpongRTT(t, net, hosts[0], hosts[3], bytes, 3)
	}
	prev := Time(-1)
	for _, b := range []int{0, 64, 1024, 16 << 10, 256 << 10} {
		r := rtt(b)
		if r < prev {
			t.Fatalf("RTT decreased from %v to %v at %dB", prev, r, b)
		}
		prev = r
	}
}
