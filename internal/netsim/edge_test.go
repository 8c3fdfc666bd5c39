package netsim

import (
	"cmp"
	"slices"
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
	if pfcXoff <= pfcXon {
		t.Fatal("thresholds not hysteretic")
	}
	cfg := DefaultConfig()
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

func TestConfigVariantsStillDeliver(t *testing.T) {
	base := DefaultConfig()
	variants := []func(*Config){
		func(c *Config) { c.PFC = false },
		func(c *Config) { c.CC = CCDCQCN },
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

// wireLog is a Forwarder that records, in wire order, the data packets
// one host puts on its link: the first switch a packet meets is where
// it is first seen.
type wireLog struct {
	RouteForwarder
	src  int
	seen map[int64]bool
	pkts [][3]int64 // (dst, flow, seq)
}

func (w *wireLog) Forward(sw, inPort int, pkt *Packet) (int, int, bool) {
	if pkt.Src == w.src && pkt.Kind == Data && !w.seen[pkt.ID] {
		w.seen[pkt.ID] = true
		w.pkts = append(w.pkts, [3]int64{int64(pkt.Dst), pkt.Flow, pkt.Seq})
	}
	return w.RouteForwarder.Forward(sw, inPort, pkt)
}

// TestNICDrainKicksInCreationOrder pins the stalled-QP set against
// the scan it replaced. One host sends to 96 peers at once, so its NIC
// stays backlogged and its QPs stall over and over. The test takes the
// drains over — the NIC port reports none — and runs one after every
// event: nicDrained in one run, a pump of every one of the host's QPs,
// in creation order, in the other. The host must inject the same packets in the same order. The
// peers are opened in an order unlike their vertex order, so creation
// order is what the drain has to keep.
func TestNICDrainKicksInCreationOrder(t *testing.T) {
	const peers = 96
	run := func(drain func(h *Host)) (*wireLog, int) {
		g := topology.FatTree(8)
		routes, err := routing.FatTreeDFS{}.Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		w := &wireLog{RouteForwarder: NewRouteForwarder(routes), src: hosts[0], seen: map[int64]bool{}}
		net, err := NewNetwork(g, w, DefaultConfig(), nil, false)
		if err != nil {
			t.Fatal(err)
		}
		h := net.Host(hosts[0])
		h.out.hostOwner = nil
		for i := 0; i < peers; i++ {
			h.Send(hosts[1+i*37%(len(hosts)-1)], i, 3*4096+100)
		}
		stalls := 0
		for net.Sim.Step() {
			for s := h.roce.stalled; s != 0; s = net.qps[s-1].nextStalled {
				stalls++
			}
			drain(h)
		}
		if len(h.roce.peers) != peers || len(net.qps) != peers {
			t.Fatalf("%d QPs on the host, %d in the fabric; want %d", len(h.roce.peers), len(net.qps), peers)
		}
		if want := peers * 4; len(w.pkts) != want {
			t.Fatalf("host injected %d data packets, want %d", len(w.pkts), want)
		}
		return w, stalls
	}
	got, stalls := run((*Host).nicDrained)
	want, _ := run(func(h *Host) {
		for qi := range h.net.qps {
			h.net.pump(int32(qi))
		}
	})
	if stalls < peers {
		t.Fatalf("QPs stalled %d times in all; the test drives too little backlog", stalls)
	}
	for i := range want.pkts {
		if got.pkts[i] != want.pkts[i] {
			t.Fatalf("injection %d: (dst, flow, seq) = %v, a full scan gives %v", i, got.pkts[i], want.pkts[i])
		}
	}
}

// TestSelfLoopBuilds: a self loop sits in its switch's CSR row once,
// with its A port, and its B port is the switch's highest; a validated
// graph with one must still build, with a port slot for both ends.
func TestSelfLoopBuilds(t *testing.T) {
	g := topology.Line(2, 1)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Switches()[0]
	e := g.Edges[g.Connect(s, s)]
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	net, err := NewNetwork(g, NewRouteForwarder(routes), DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	sw := net.switches[s]
	if len(sw.outPorts) <= e.BPort || sw.outPorts[e.APort] == nil || sw.outPorts[e.BPort] == nil {
		t.Fatalf("switch %d: %d port slots, self loop on ports %d and %d", s, len(sw.outPorts), e.APort, e.BPort)
	}
}

// TestLinkStateByEdge: SetLinkDown and LinkIsDown address edge e's two
// directed links directly; the reference is a scan of every link's
// receiving end and down flag. Cutting e downs both its directions and
// nothing else, restoring it brings them back, and an edge outside the
// fabric reports false and changes nothing.
func TestLinkStateByEdge(t *testing.T) {
	for _, g := range []*topology.Graph{topology.FatTree(4), topology.Dragonfly(4, 9, 2, 1)} {
		net, err := NewNetwork(g, dropForwarder{}, DefaultConfig(), nil, false)
		if err != nil {
			t.Fatal(err)
		}
		byEnd := func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
		// downLinks scans the fabric: the receiving ends (vertex and
		// ingress port) of its down links, sorted, one per direction.
		downLinks := func() [][2]int {
			var out [][2]int
			for i := range net.links {
				if l := &net.links[i]; l.down {
					v := l.to.inPort
					if l.to.sw != nil {
						out = append(out, [2]int{l.to.sw.vertex, v})
					} else {
						out = append(out, [2]int{l.to.host.vertex, v})
					}
				}
			}
			slices.SortFunc(out, byEnd)
			return out
		}
		for e, edge := range g.Edges {
			if !net.SetLinkDown(e, true) {
				t.Fatalf("%s: SetLinkDown(%d) reports no such edge", g.Name, e)
			}
			want := [][2]int{{edge.A, edge.APort}, {edge.B, edge.BPort}}
			slices.SortFunc(want, byEnd)
			if got := downLinks(); !slices.Equal(got, want) {
				t.Fatalf("%s: cutting edge %d downs the links into %v, want %v", g.Name, e, got, want)
			}
			for f := range g.Edges {
				if net.LinkIsDown(f) != (f == e) {
					t.Fatalf("%s: edge %d cut, LinkIsDown(%d) = %v", g.Name, e, f, !(f == e))
				}
			}
			net.SetLinkDown(e, false)
			if got := downLinks(); len(got) != 0 || net.LinkIsDown(e) {
				t.Fatalf("%s: restoring edge %d leaves the links into %v down", g.Name, e, got)
			}
		}
		for _, e := range []int{-1, len(g.Edges)} {
			if net.SetLinkDown(e, true) || net.LinkIsDown(e) {
				t.Fatalf("%s: edge %d outside the fabric reports present", g.Name, e)
			}
			if got := downLinks(); len(got) != 0 {
				t.Fatalf("%s: cutting edge %d downs the links into %v", g.Name, e, got)
			}
		}
	}
}
