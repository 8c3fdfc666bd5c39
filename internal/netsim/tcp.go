package netsim

import "repro/internal/engine"

// TCPConn is a Reno-style TCP connection used for the iperf incast
// experiment (Fig. 12): slow start, congestion avoidance, fast
// retransmit on three duplicate ACKs, a coarse RTO, and ECN response.
// Both endpoints share the struct; the sender side lives at src, the
// receiver side at dst.
type TCPConn struct {
	net  *Network
	flow int64
	idx  int32 // index in the Network's tcps, carried by its packets
	src  int
	dst  int
	mss  int

	// Sender state.
	sndNxt, sndUna int64
	cwnd, ssthresh float64
	maxCwnd        float64
	limit          int64 // total bytes to send; <0 = unlimited
	dupacks        int
	inRecovery     bool
	recoverSeq     int64
	ecnGuard       int64         // no further ECN reaction until sndUna passes this
	rto            engine.Handle // pending RTO event; cancelled on progress
	done           func(fct Time)
	startAt        Time

	// Receiver state.
	rcvNxt   int64
	ooo      map[int64]int // seq -> len
	RcvBytes int64         // cumulative goodput at the receiver
}

// tcpRTO is the coarse retransmission timeout.
const tcpRTO = 2 * Millisecond

// tcpFlow marks TCP flow IDs, which no RoCE flow ID reaches.
const tcpFlow = 1 << 62

// StartTCP opens a TCP flow from src to dst sending `limit` bytes
// (limit < 0 streams until the run ends). done, if non-nil, fires at the
// sender when the last byte is cumulatively acknowledged.
func (n *Network) StartTCP(src, dst int, limit int64, done func(fct Time)) *TCPConn {
	n.nextID++
	c := &TCPConn{
		net: n, flow: n.nextID | tcpFlow, idx: int32(len(n.tcps)), src: src, dst: dst,
		mss:  n.Cfg.MTU,
		cwnd: float64(n.Cfg.MTU) * 10, ssthresh: 1 << 20, maxCwnd: 1 << 20,
		limit: limit, ooo: map[int64]int{}, done: done,
		startAt: n.Sim.Now(),
	}
	n.tcps = append(n.tcps, c)
	c.trySend()
	c.armRTO()
	return c
}

func (c *TCPConn) remaining() int64 {
	if c.limit < 0 {
		return 1 << 60
	}
	return c.limit - c.sndNxt
}

// trySend emits new segments while the window allows.
func (c *TCPConn) trySend() {
	for c.sndNxt-c.sndUna < int64(c.cwnd) && c.remaining() > 0 {
		l := int64(c.mss)
		if r := c.remaining(); r < l {
			l = r
		}
		c.emit(c.sndNxt, int(l))
		c.sndNxt += l
	}
}

func (c *TCPConn) emit(seq int64, l int) {
	n := c.net
	n.hosts[c.src].inject(n.pkts.alloc(Packet{
		ID: n.pktID(), Kind: Data, Src: c.src, Dst: c.dst,
		Size: l + HeaderBytes, Len: l, Flow: c.flow, Seq: seq, Prio: 0, conn: c.idx,
	}))
}

// onData runs at the receiver: cumulative reassembly plus an immediate
// ACK carrying the ECN echo.
func (c *TCPConn) onData(pkt *Packet) {
	n := c.net
	if pkt.Seq == c.rcvNxt {
		c.rcvNxt += int64(pkt.Len)
		for {
			l, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.rcvNxt += int64(l)
		}
	} else if pkt.Seq > c.rcvNxt {
		c.ooo[pkt.Seq] = pkt.Len
	}
	c.RcvBytes = c.rcvNxt
	n.hosts[c.dst].DeliveredBytes += int64(pkt.Len)
	n.hosts[c.dst].inject(n.pkts.alloc(Packet{
		ID: n.pktID(), Kind: Ack, Src: c.dst, Dst: c.src,
		Size: 64, Flow: c.flow, Prio: 1, conn: c.idx,
		AckSeq: c.rcvNxt, AckECN: pkt.ECN,
	}))
}

// onAck runs at the sender: window evolution per Reno.
func (c *TCPConn) onAck(pkt *Packet) {
	mss := float64(c.mss)
	if pkt.AckECN && c.sndUna >= c.ecnGuard {
		// ECN: halve once per window.
		c.ssthresh = c.cwnd / 2
		if c.ssthresh < mss {
			c.ssthresh = mss
		}
		c.cwnd = c.ssthresh
		c.ecnGuard = c.sndNxt
	}
	if pkt.AckSeq > c.sndUna {
		c.sndUna = pkt.AckSeq
		c.dupacks = 0
		c.armRTO()
		if c.inRecovery && c.sndUna >= c.recoverSeq {
			c.inRecovery = false
			c.cwnd = c.ssthresh
		}
		if !c.inRecovery {
			if c.cwnd < c.ssthresh {
				c.cwnd += mss // slow start
			} else {
				c.cwnd += mss * mss / c.cwnd // congestion avoidance
			}
			if c.cwnd > c.maxCwnd {
				c.cwnd = c.maxCwnd
			}
		}
		if c.limit >= 0 && c.sndUna >= c.limit && c.done != nil {
			d := c.done
			c.done = nil
			d(c.net.Sim.Now() - c.startAt)
		}
	} else if pkt.AckSeq == c.sndUna {
		c.dupacks++
		if c.dupacks == 3 && !c.inRecovery {
			// Fast retransmit.
			c.ssthresh = c.cwnd / 2
			if c.ssthresh < mss {
				c.ssthresh = mss
			}
			c.cwnd = c.ssthresh + float64(3*mss) // rounded: no fused multiply-add
			c.inRecovery = true
			c.recoverSeq = c.sndNxt
			l := int64(c.mss)
			if c.limit >= 0 && c.limit-c.sndUna < l {
				l = c.limit - c.sndUna
			}
			if l > 0 {
				c.emit(c.sndUna, int(l))
			}
		} else if c.inRecovery {
			c.cwnd += mss // inflate
		}
	}
	c.trySend()
	// Everything acknowledged and no more data coming (finite flow
	// done): retire the timer instead of letting it fire one last
	// no-op.
	if c.sndUna >= c.sndNxt && c.remaining() == 0 {
		c.net.Sim.Cancel(c.rto)
		c.rto = engine.Handle{}
	}
}

// armRTO (re)arms the retransmission timer: the pending timeout, if
// any, is cancelled outright — no stale timers ever fire.
func (c *TCPConn) armRTO() {
	sim := c.net.Sim
	sim.Cancel(c.rto)
	c.rto = sim.ScheduleAfter(tcpRTO, c, engine.Event{Kind: evRTO})
}

// OnEvent fires the retransmission timeout. Cancellation guarantees
// the timer is current: no epoch counters or progress re-checks are
// needed, only the is-anything-outstanding guard.
func (c *TCPConn) OnEvent(now Time, ev engine.Event) {
	if ev.Kind != evRTO {
		return
	}
	c.rto = engine.Handle{}
	if c.sndUna >= c.sndNxt || (c.limit >= 0 && c.sndUna >= c.limit) {
		return // nothing outstanding
	}
	// Timeout: collapse to slow start and retransmit.
	mss := float64(c.mss)
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < mss {
		c.ssthresh = mss
	}
	c.cwnd = mss
	c.inRecovery = false
	c.dupacks = 0
	l := int64(c.mss)
	if c.limit >= 0 && c.limit-c.sndUna < l {
		l = c.limit - c.sndUna
	}
	if l > 0 {
		c.emit(c.sndUna, int(l))
	}
	c.armRTO()
}
