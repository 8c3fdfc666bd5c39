package netsim

import (
	"testing"

	"repro/internal/topology"
)

// --- DCQCN rate-law boundaries (pure state, via the CCPolicy seam) ---

func TestDCQCNDecreaseFloor(t *testing.T) {
	cfg := DefaultConfig()
	s := newDCQCNState(&cfg)
	floor := cfg.LinkBps / 100
	for i := 0; i < 200; i++ {
		s.decrease()
		if s.rate < floor {
			t.Fatalf("decrease %d: rate %.3g below the LinkBps/100 floor %.3g", i, s.rate, floor)
		}
	}
	if s.rate != floor {
		t.Errorf("after sustained CNPs rate = %.6g, want pinned at the floor %.6g", s.rate, floor)
	}
}

func TestDCQCNAlphaConvergence(t *testing.T) {
	cfg := DefaultConfig()
	s := newDCQCNState(&cfg)
	// Sustained congestion: alpha EWMA must rise monotonically toward 1.
	prev := s.alpha
	for i := 0; i < 300; i++ {
		s.decrease()
		if s.alpha < prev || s.alpha > 1 {
			t.Fatalf("decrease %d: alpha %.6g not monotone in (%.6g, 1]", i, s.alpha, prev)
		}
		prev = s.alpha
	}
	if 1-s.alpha > 1e-6 {
		t.Errorf("alpha converged to %.8g, want ~1 under sustained CNPs", s.alpha)
	}
	// Quiet period: alpha must decay toward 0 by (1-g) per tick.
	for i := 0; i < 600; i++ {
		s.increase()
	}
	if s.alpha > 1e-6 {
		t.Errorf("alpha decayed to %.8g, want ~0 after a long quiet period", s.alpha)
	}
}

func TestDCQCNTargetClampAtLine(t *testing.T) {
	cfg := DefaultConfig()
	s := newDCQCNState(&cfg)
	s.decrease() // knock the rate off line so recovery has work to do
	for i := 0; i < 500; i++ {
		s.increase()
		if s.target > s.line {
			t.Fatalf("increase %d: target %.6g above line %.6g", i, s.target, s.line)
		}
		if s.rate > s.line {
			t.Fatalf("increase %d: rate %.6g above line %.6g", i, s.rate, s.line)
		}
	}
	if s.target != s.line {
		t.Errorf("target = %.6g, want clamped at line %.6g", s.target, s.line)
	}
	if !s.recovered() {
		t.Errorf("rate = %.6g did not recover to 99%% of line %.6g", s.rate, s.line)
	}
}

// --- Timely gradient law ---

func TestTimelyGradientLaw(t *testing.T) {
	cfg := DefaultConfig()
	line := cfg.LinkBps
	fresh := func(rate float64) *timelyCC {
		c := newTimelyCC(&cfg)
		c.rate = rate
		c.sample(cfg.TimelyMinRTT) // prime prevRTT
		return c
	}

	// Below TLow: additive increase regardless of gradient.
	c := fresh(line / 2)
	before := c.rate
	c.sample(cfg.TimelyTLow / 2)
	if c.rate != before+cfg.TimelyAddBps {
		t.Errorf("low RTT: rate %.6g, want additive step to %.6g", c.rate, before+cfg.TimelyAddBps)
	}

	// Above THigh: multiplicative decrease.
	c = fresh(line)
	before = c.rate
	c.sample(2 * cfg.TimelyTHigh)
	if c.rate >= before {
		t.Errorf("high RTT: rate %.6g did not decrease from %.6g", c.rate, before)
	}

	// Gradient zone, rising RTTs: decrease proportional to the gradient.
	c = fresh(line)
	mid := (cfg.TimelyTLow + cfg.TimelyTHigh) / 2
	c.sample(mid)
	before = c.rate
	c.sample(mid + 20*Microsecond)
	if c.rate >= before {
		t.Errorf("rising RTT gradient: rate %.6g did not decrease from %.6g", c.rate, before)
	}

	// Gradient zone, falling RTTs: additive increase.
	c = fresh(line / 2)
	c.sample(mid + 40*Microsecond)
	before = c.rate
	c.sample(mid)
	if c.rate <= before {
		t.Errorf("falling RTT gradient: rate %.6g did not increase from %.6g", c.rate, before)
	}

	// Clamps: sustained quiet never exceeds line, sustained congestion
	// never drops below the floor.
	c = fresh(line)
	for i := 0; i < 1000; i++ {
		c.sample(cfg.TimelyTLow / 4)
		if c.rate > line {
			t.Fatalf("sample %d: rate %.6g above line", i, c.rate)
		}
	}
	for i := 0; i < 1000; i++ {
		c.sample(10 * cfg.TimelyTHigh)
		if c.rate < line/100 {
			t.Fatalf("sample %d: rate %.6g below the floor", i, c.rate)
		}
	}
}

// --- pFabric size-priority mapping ---

func TestSizePrioClass(t *testing.T) {
	mtu := 4096
	cases := []struct {
		remaining int
		want      int
	}{
		{0, ctrlClass - 1},
		{1, ctrlClass - 1},
		{mtu, ctrlClass - 1},
		{mtu + 1, ctrlClass - 2},
		{4 * mtu, ctrlClass - 2},
		{4*mtu + 1, ctrlClass - 3},
		{16 * mtu, ctrlClass - 3},
		{64 * mtu, ctrlClass - 4},
		{256 * mtu, ctrlClass - 5},
		{1024 * mtu, ctrlClass - 6},
		{1024*mtu + 1, 0},
		{1 << 30, 0},
	}
	for _, c := range cases {
		if got := sizePrioClass(c.remaining, mtu); got != c.want {
			t.Errorf("sizePrioClass(%d) = %d, want %d", c.remaining, got, c.want)
		}
	}
	// Every class must stay inside the pausable data range.
	for rem := 0; rem < 1<<22; rem += 997 {
		if cls := sizePrioClass(rem, mtu); cls < 0 || cls >= ctrlClass {
			t.Fatalf("sizePrioClass(%d) = %d outside data classes [0, %d)", rem, cls, ctrlClass)
		}
	}
}

// --- Config seam ---

func TestUnknownCCPolicyRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CC = "bbr"
	g := topology.Line(2, 1)
	if _, err := NewNetwork(g, dropForwarder{}, cfg, nil, false); err == nil {
		t.Fatal("unknown CC policy accepted")
	}
}

// dropForwarder drops everything at the first switch — enough for
// host-plane tests that never need delivery.
type dropForwarder struct{ seen map[int]int64 }

func (d dropForwarder) Forward(sw, inPort int, pkt *Packet) (int, int, bool) {
	if d.seen != nil {
		d.seen[pkt.Src] = pkt.Flow
	}
	return 0, 0, false
}

// --- Satellite: flow-ID packing across >= 65k vertices ---

func TestFlowIDsDistinctAcross65kVertices(t *testing.T) {
	// A star big enough that two host vertices differ by exactly 65536
	// — the pair the old 16-bit packing (msg<<16 | vertex&0xffff)
	// collided on.
	g := topology.Star(33000, 1) // 1 hub + 33000 leaves + 33000 hosts
	if n := len(g.Vertices); n < 1<<16 {
		t.Fatalf("topology has %d vertices, need >= %d", n, 1<<16)
	}
	hosts := g.Hosts()
	a, b := -1, -1
	for _, h := range hosts {
		if h+1<<16 < len(g.Vertices) && g.Vertices[h+1<<16].Kind == topology.Host {
			a, b = h, h+1<<16
			break
		}
	}
	if a < 0 {
		t.Fatalf("no host pair with vertex IDs 65536 apart in %d hosts", len(hosts))
	}
	fwd := dropForwarder{seen: map[int]int64{}}
	net, err := NewNetwork(g, fwd, DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	net.Host(a).Send(b, 1, 100)
	net.Host(b).Send(a, 1, 100)
	net.Sim.Run(0)
	fa, oka := fwd.seen[a]
	fb, okb := fwd.seen[b]
	if !oka || !okb {
		t.Fatalf("packets not observed: a=%v b=%v", oka, okb)
	}
	if fa == fb {
		t.Fatalf("flow IDs collide across vertices %d and %d: both %#x", a, b, fa)
	}
	if fa != roceFlowID(a, 1) || fb != roceFlowID(b, 1) {
		t.Errorf("flow IDs %#x/%#x do not match the packing for vertices %d/%d", fa, fb, a, b)
	}
}

// --- Satellite: CNP throttled per flow, not per source ---

func TestCNPThrottledPerFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CC = CCDCQCN
	net, g := buildLine(t, 2, 1, cfg)
	hosts := g.Hosts()
	rx := net.Host(hosts[0])
	src := hosts[1]
	mk := func(flow int64) *Packet {
		pkt := allocPacket()
		*pkt = Packet{Kind: Data, Src: src, Dst: hosts[0], Size: 1000, Len: 934, Flow: flow, ECN: true}
		return pkt
	}
	feed := func(flow int64) {
		pkt := mk(flow)
		rx.receive(pkt)
		pkt.release()
	}

	// Two concurrent flows from ONE source, both ECN-marked: each must
	// get its own CNP (the old per-source throttle starved the second).
	before := net.nextID
	feed(roceFlowID(src, 1))
	feed(roceFlowID(src, 2))
	if got := net.nextID - before; got != 2 {
		t.Fatalf("two marked flows from one source produced %d CNPs, want 2", got)
	}

	// The same flow twice inside CNPInterval: still throttled to one.
	before = net.nextID
	feed(roceFlowID(src, 3))
	feed(roceFlowID(src, 3))
	if got := net.nextID - before; got != 1 {
		t.Fatalf("same flow twice inside CNPInterval produced %d CNPs, want 1", got)
	}
}

// --- Satellite: DCQCN timer disarms on idle QPs ---

func TestDCQCNIdleTimerDisarms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CC = CCDCQCN
	net, g := buildLine(t, 2, 1, cfg)
	hosts := g.Hosts()
	src := net.Host(hosts[0])
	var delivered Time
	recvThen(net.Host(hosts[1]), hosts[0], 1, func() { delivered = net.Sim.Now() })
	src.Send(hosts[1], 1, 8*1024)
	// Collapse the rate so recovery needs many timer periods.
	q := src.roce.qp(hosts[1])
	for i := 0; i < 8; i++ {
		q.onCNP()
	}
	cc := q.cc.(*dcqcnCC)
	if cc.recovered() {
		t.Fatal("rate did not collapse")
	}

	end := net.Sim.Run(0)
	if delivered == 0 {
		t.Fatal("message not delivered")
	}
	// The engine must go quiescent within a couple of timer periods of
	// the delivery: the old code self-rescheduled every DCQCNTimer on
	// the idle QP until the rate crawled back to 99% of line (~10 ms of
	// pure timer events here).
	if idle := end - delivered; idle > 3*cfg.DCQCNTimer {
		t.Errorf("engine ran %v past the last delivery, want <= %v (idle timer not disarmed)",
			idle, 3*cfg.DCQCNTimer)
	}

	// Event-count pin: a long idle gap fires no QP events at all.
	ev0 := net.Sim.Events()
	net.Sim.At(net.Sim.Now()+20*Millisecond, func() {})
	net.Sim.Run(0)
	if d := net.Sim.Events() - ev0; d != 1 {
		t.Errorf("idle gap fired %d events, want exactly the 1 probe", d)
	}

	// The next Send replays the parked ticks: after 20 ms (>= ~360
	// periods) the QP must wake fully recovered.
	src.Send(hosts[1], 1, 1024)
	if !cc.recovered() {
		t.Errorf("rate %.6g after long idle, want recovered to >= 99%% of %.6g", cc.rate, cc.line)
	}
	net.Sim.Run(0)
}

// --- End-to-end behaviour per policy ---

// ccIncast runs the 7-senders-to-one incast of TestDCQCNReducesPauses
// under an arbitrary CC config and reports (pauses, end time).
func ccIncast(t *testing.T, cfg Config, bytes int) (int64, Time) {
	t.Helper()
	net, g := buildLine(t, 8, 1, cfg)
	hosts := g.Hosts()
	for i, h := range hosts {
		if i == 3 {
			continue
		}
		net.Host(h).roce.Send(hosts[3], 1, bytes)
	}
	end := net.Sim.Run(0)
	if net.TotalDrops != 0 {
		t.Fatalf("lossless run dropped %d", net.TotalDrops)
	}
	return net.PausesSent, end
}

func TestTimelyReducesPauses(t *testing.T) {
	base := DefaultConfig()
	off, _ := ccIncast(t, base, 4<<20)
	cfg := DefaultConfig()
	cfg.CC = CCTimely
	on, _ := ccIncast(t, cfg, 4<<20)
	if on >= off {
		t.Errorf("timely on: %d pauses, off: %d; delay CC should back off before PFC", on, off)
	}
}

func TestCCDeterminism(t *testing.T) {
	for _, cc := range []string{CCTimely, CCPFabric} {
		run := func() (Time, int64) {
			cfg := DefaultConfig()
			cfg.CC = cc
			net, g := buildLine(t, 8, 1, cfg)
			hosts := g.Hosts()
			for i, h := range hosts {
				if i == 3 {
					continue
				}
				net.Host(h).roce.Send(hosts[3], 1, 1<<20)
			}
			end := net.Sim.Run(0)
			return end, net.Sim.Events()
		}
		t1, e1 := run()
		t2, e2 := run()
		if t1 != t2 || e1 != e2 {
			t.Errorf("%s non-deterministic: (%v,%d) vs (%v,%d)", cc, t1, e1, t2, e2)
		}
	}
}

// TestPFabricPrioritizesShortFlows pins the point of size-priority
// scheduling: a short message contending with a long one on the same
// path finishes far sooner when its packets ride a higher class.
func TestPFabricPrioritizesShortFlows(t *testing.T) {
	mouse := func(cc string) Time {
		cfg := DefaultConfig()
		cfg.CC = cc
		net, g := buildLine(t, 2, 2, cfg)
		hosts := g.Hosts() // h0,h1 on switch 0; h2,h3 on switch 1
		var mouseAt Time
		recvThen(net.Host(hosts[3]), hosts[1], 2, func() { mouseAt = net.Sim.Now() })
		// Elephant first so the shared link is already backlogged.
		net.Host(hosts[0]).Send(hosts[3], 1, 8<<20)
		net.Sim.At(100*Microsecond, func() {
			net.Host(hosts[1]).Send(hosts[3], 2, 64*1024)
		})
		net.Sim.Run(0)
		if mouseAt == 0 {
			t.Fatalf("%s: mouse never delivered", cc)
		}
		return mouseAt
	}
	fifo := mouse("")
	prio := mouse(CCPFabric)
	if prio >= fifo {
		t.Errorf("pfabric mouse FCT %v >= FIFO %v; size priority should cut short-flow latency", prio, fifo)
	}
}

// FuzzCCPolicy drives the pure rate laws with arbitrary signal
// sequences and checks the rate invariants every policy must hold:
// never negative, never above line, floored at line/100 once any
// signal has arrived, never NaN, and pFabric classes always inside the
// data range.
func FuzzCCPolicy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 1})
	f.Add([]byte{2, 2, 2, 2, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := DefaultConfig()
		line := cfg.LinkBps
		d := newDCQCNState(&cfg)
		tc := newTimelyCC(&cfg)
		check := func(name string, rate float64) {
			if rate != rate { // NaN
				t.Fatalf("%s rate is NaN", name)
			}
			if rate < line/100-1e-9 || rate > line+1e-9 {
				t.Fatalf("%s rate %.6g outside [%.6g, %.6g]", name, rate, line/100, line)
			}
		}
		for i, op := range ops {
			switch op % 4 {
			case 0:
				d.decrease()
			case 1:
				d.increase()
			case 2:
				// RTT from the next byte: spans negative, zero, tiny,
				// and way past THigh.
				var raw int64 = -1
				if i+1 < len(ops) {
					raw = int64(ops[i+1])*20*int64(Microsecond) - 50*int64(Microsecond)
				}
				tc.sample(Time(raw))
			case 3:
				rem := int(op) * int(op) * 1024
				if cls := sizePrioClass(rem, cfg.MTU); cls < 0 || cls >= ctrlClass {
					t.Fatalf("sizePrioClass(%d) = %d outside data classes", rem, cls)
				}
			}
			check("dcqcn", d.rate)
			check("timely", tc.rate)
			if d.target > line || d.target != d.target {
				t.Fatalf("dcqcn target %.6g above line or NaN", d.target)
			}
			if d.alpha < 0 || d.alpha > 1 || d.alpha != d.alpha {
				t.Fatalf("dcqcn alpha %.6g outside [0,1] or NaN", d.alpha)
			}
		}
	})
}
