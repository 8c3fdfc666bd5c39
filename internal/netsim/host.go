package netsim

import (
	"cmp"
	"slices"

	"repro/internal/engine"
)

// mailbox matches arrived messages with posted receives, MPI-style
// (exact source + tag matching at the receiving host, FIFO per key).
// Continuations are stored as typed engine callbacks, so the app layer
// stays closure-free. One mailbox serves a whole fabric, its maps made
// on first use. Traces tag every phase afresh, so keys are
// short-lived: a drained key is deleted, and a key's first waiter is
// held inline in the map.
type mailbox struct {
	arrived map[msgKey]int
	waiting map[msgKey]waiters
}

// msgKey names a message by receiving host, source host and tag.
type msgKey struct {
	dst, src int32
	tag      int
}

// waiters is one key's posted receives in order: first, then more.
type waiters struct {
	first engine.Callback
	more  []engine.Callback
}

func (m *mailbox) deliver(sim *Sim, dst, src, tag int) {
	k := msgKey{int32(dst), int32(src), tag}
	if w, ok := m.waiting[k]; ok {
		cont := w.first
		if len(w.more) == 0 {
			delete(m.waiting, k)
		} else {
			w.first = w.more[0]
			n := copy(w.more, w.more[1:])
			w.more[n] = engine.Callback{}
			w.more = w.more[:n]
			m.waiting[k] = w
		}
		sim.Post(sim.Now(), cont)
		return
	}
	if m.arrived == nil {
		m.arrived = map[msgKey]int{}
	}
	m.arrived[k]++
}

func (m *mailbox) recv(sim *Sim, dst, src, tag int, cont engine.Callback) {
	k := msgKey{int32(dst), int32(src), tag}
	if c := m.arrived[k]; c > 0 {
		if c == 1 {
			delete(m.arrived, k)
		} else {
			m.arrived[k] = c - 1
		}
		sim.Post(sim.Now(), cont)
		return
	}
	if w, ok := m.waiting[k]; ok {
		w.more = append(w.more, cont)
		m.waiting[k] = w
		return
	}
	if m.waiting == nil {
		m.waiting = map[msgKey]waiters{}
	}
	m.waiting[k] = waiters{first: cont}
}

// roceMsg is one RDMA message from Send to reassembly, in its
// Network's msgs slab. The sender's QP queues it through next, the
// receiver counts its bytes into got and throttles its CNPs at cnpAt,
// and the receiver frees it on completion, when no packet of it is
// left in flight. A free slot's next links the free list.
type roceMsg struct {
	id    int64 // flow ID on the wire
	bytes int   // payload size
	sent  int   // payload bytes emitted
	got   int   // payload bytes reassembled
	tag   int
	cnpAt Time  // time of the last CNP, when cnp is set
	next  int32 // next message in the QP's queue, 0 ends
	cnp   bool
}

// roceQP is a (source host, destination) queue pair in its Network's
// qps slab; its messages wait from head to tail, and its rate state is
// at the same index in the policy's slab (see cc.go).
type roceQP struct {
	nextSendAt  Time
	src, dst    int32 // source host and destination vertices
	head, tail  int32 // message queue, 0 when empty
	nextStalled int32 // next QP + 1 on its host's stalled list, 0 ends
	pumping     bool
	stalled     bool // on its host's stalled list
}

// roceEngine is one host's share of the RoCE state: its QPs by
// destination and the ones waiting on NIC backlog. It lives inside
// its Host rather than in an allocation of its own.
type roceEngine struct {
	// peers holds the host's QPs sorted by destination; Send
	// binary-searches it once per message.
	peers []int32
	// stalled heads the list, linked through the QPs, of the QPs whose
	// pump stopped on NIC backlog, so a drain kicks only those: QP
	// index + 1, 0 when the list is empty.
	stalled int32
	// nextMsg allocates message IDs.
	nextMsg int64
}

// qpTo returns host h's queue pair toward dst, creating it on first
// use. Creation appends to the qps slab.
func (n *Network) qpTo(h *Host, dst int) int32 {
	e := &h.roce
	i, found := slices.BinarySearchFunc(e.peers, int32(dst), func(qi, d int32) int { return cmp.Compare(n.qps[qi].dst, d) })
	if found {
		return e.peers[i]
	}
	qi := int32(len(n.qps))
	e.peers = slices.Insert(e.peers, i, qi)
	n.qps = append(n.qps, roceQP{src: int32(h.vertex), dst: int32(dst)})
	switch n.cc {
	case ccDCQCN:
		n.dcqcn = append(n.dcqcn, dcqcnCC{dcqcnState: newDCQCNState(&n.Cfg)})
	case ccTimely:
		n.timely = append(n.timely, newTimelyCC(&n.Cfg))
	}
	return qi
}

// newMsg stores m in a free message slot.
func (n *Network) newMsg(m roceMsg) int32 {
	i := n.freeMsg
	if i == 0 {
		n.msgs = append(n.msgs, m)
		return int32(len(n.msgs) - 1)
	}
	n.freeMsg = n.msgs[i].next
	n.msgs[i] = m
	return i
}

// roceFlowID packs (source vertex, per-host message counter) into one
// fabric-unique flow ID: the vertex in the low 32 bits — wide enough
// for any in-memory topology (the k=64 fat-tree's ~65k vertices
// overflowed the 16-bit packing this replaces) — and the counter
// above, staying clear of bit 62, which namespaces TCP flow IDs.
func roceFlowID(vertex int, msg int64) int64 {
	return msg<<32 | int64(uint32(vertex))
}

// Send posts an RDMA message from this host toward host vertex dst
// with an application tag — the public messaging entry point. Message
// boundaries are preserved; completion is signalled at the receiver's
// mailbox.
func (h *Host) Send(dst, tag, bytes int) {
	n := h.net
	h.roce.nextMsg++
	qi := n.qpTo(h, dst)
	mi := n.newMsg(roceMsg{id: roceFlowID(h.vertex, h.roce.nextMsg), tag: tag, bytes: bytes})
	q := &n.qps[qi]
	if q.tail == 0 {
		q.head = mi
	} else {
		n.msgs[q.tail].next = mi
	}
	q.tail = mi
	n.pump(qi)
}

// pump emits a packet of QP qi's head message, paced by the CC
// policy's rate and self-clocked against the NIC queue: while more
// than two packets wait on the wire's data queues, emission pauses
// until the NIC drains (nicDrained kicks it). This enforces the rate
// at the wire even across PFC pauses.
func (n *Network) pump(qi int32) {
	q := &n.qps[qi]
	if q.pumping || q.head == 0 {
		return
	}
	h := n.hosts[q.src]
	if h.nicBacklogged() {
		if !q.stalled { // resume on drain
			q.stalled, q.nextStalled = true, h.roce.stalled
			h.roce.stalled = qi + 1
		}
		return
	}
	q.pumping = true
	now := n.Sim.Now()
	if n.cc == ccDCQCN {
		n.dcqcn[qi].catchUp(n, qi, now)
	}
	at := now + n.Cfg.HostLatency
	if q.nextSendAt > at {
		at = q.nextSendAt
	}
	mi := q.head
	m := &n.msgs[mi]
	payload := n.Cfg.MTU
	if rem := m.bytes - m.sent; rem < payload {
		payload = rem
	}
	if payload < 0 {
		payload = 0
	}
	size := payload + HeaderBytes
	pkt := n.pkts.alloc(Packet{
		ID: n.pktID(), Kind: Data, Src: h.vertex, Dst: int(q.dst),
		Size: size, Len: payload, Flow: m.id, Seq: int64(m.sent),
		TS: at, msg: mi, conn: qi,
	})
	if n.cc == ccPFabric {
		// pFabric: stamp the wire class from the bytes still unsent
		// (this packet included) — the less left, the higher the
		// class; inject and the switches keep the stamp.
		pkt.Prio = sizePrioClass(m.bytes-m.sent, n.Cfg.MTU)
	}
	m.sent += payload
	if m.sent >= m.bytes {
		if q.head = m.next; q.head == 0 {
			q.tail = 0
		}
	}
	gap := serTime(size, n.ccRate(qi))
	n.Sim.Schedule(at, n, engine.Event{Kind: evQPSend, Ref: qi, A: int64(gap), B: int64(pkt.idx)})
	if n.cc == ccDCQCN {
		n.dcqcn[qi].arm(n, qi)
	}
}

// inject hands a packet to the host NIC egress queue. Under pFabric a
// data packet keeps the size-priority class the QP stamped; every
// other packet derives its class from its VC tag as usual.
func (h *Host) inject(pkt *Packet) {
	if h.net.cc != ccPFabric || pkt.Kind != Data {
		pkt.Prio = pfcClass(pkt)
	}
	pkt.arrClass = pkt.Prio // NIC-originated: arrival class = wire class
	h.out.queues[pkt.Prio].push(&h.net.rings, pkt)
	h.net.tryTransmit(h.out)
}

// nicBacklogged reports whether more than two packets wait on the
// NIC's data queues, which holds back every QP pump.
func (h *Host) nicBacklogged() bool {
	return h.out.queuedDataBytes() > 2*(h.net.Cfg.MTU+HeaderBytes)
}

// nicDrained is called when a packet leaves the NIC wire queue; it
// resumes, in creation order, the QP pumps that stopped on backlog.
// Every other QP is pumping or has nothing to send, so pumping it
// would do nothing. A pump that stalls again lists its QP for the
// next drain.
//
// The kicked QPs are collected into the fabric's scratch, which no
// other drain can touch meanwhile: a pump only schedules, so no queue
// drains inside this loop.
func (h *Host) nicDrained() {
	e := &h.roce
	if e.stalled == 0 || h.nicBacklogged() {
		return
	}
	n := h.net
	kick := n.kick[:0]
	for s := e.stalled; s != 0; {
		q := &n.qps[s-1]
		kick = append(kick, s-1)
		s, q.stalled, q.nextStalled = q.nextStalled, false, 0
	}
	e.stalled = 0
	slices.Sort(kick) // slab order is creation order
	for _, qi := range kick {
		n.pump(qi)
	}
	n.kick = kick[:0]
}

// OnEvent dispatches host events (delayed application delivery).
func (h *Host) OnEvent(now Time, ev engine.Event) {
	if ev.Kind == evDeliver {
		h.net.mail.deliver(h.net.Sim, h.vertex, int(ev.A), int(ev.B))
	}
}

// receive handles a packet arriving at the host NIC. The caller owns
// the packet and releases it afterwards; nothing here may retain it.
// A TCP packet names its connection, a RoCE ack or CNP its QP.
func (h *Host) receive(pkt *Packet) {
	n := h.net
	if pkt.Flow&tcpFlow != 0 {
		if c := n.tcps[pkt.conn]; pkt.Kind == Data {
			c.onData(pkt)
		} else {
			c.onAck(pkt)
		}
		return
	}
	switch pkt.Kind {
	case Data:
		h.roceData(pkt)
	case Ack: // only Timely acks RoCE data
		// The echoed stamp yields the RTT sample.
		n.timely[pkt.conn].sample(n.Sim.Now() - pkt.TS)
	case Cnp: // only DCQCN sends CNPs
		n.dcqcn[pkt.conn].cnp(n, pkt.conn, n.Sim.Now())
	}
}

// roceData reassembles RDMA messages and runs the receiver half of
// the CC policy: the DCQCN notification point (CNP on ECN-marked
// arrivals, rate-limited per message) or the Timely delay echo (an
// ack per data packet carrying the send stamp back to the source).
func (h *Host) roceData(pkt *Packet) {
	n := h.net
	h.DeliveredBytes += int64(pkt.Len)
	n.DeliveredPkt++
	if len(n.awaiting) != 0 {
		n.deliverAwaited()
	}
	m := &n.msgs[pkt.msg]
	switch n.cc {
	case ccDCQCN:
		if pkt.ECN {
			// Throttle per message (cnpInterval documents exactly
			// this), so concurrent flows from one source each keep
			// their own congestion signal instead of starving each
			// other's.
			if !m.cnp || n.Sim.Now()-m.cnpAt >= cnpInterval {
				m.cnp, m.cnpAt = true, n.Sim.Now()
				h.inject(n.pkts.alloc(Packet{
					ID: n.pktID(), Kind: Cnp, Src: h.vertex, Dst: pkt.Src,
					Size: 64, Prio: 1, conn: pkt.conn,
				}))
			}
		}
	case ccTimely:
		h.inject(n.pkts.alloc(Packet{
			ID: n.pktID(), Kind: Ack, Src: h.vertex, Dst: pkt.Src,
			Size: 64, Flow: pkt.Flow, TS: pkt.TS, conn: pkt.conn,
		}))
	}
	if m.got += pkt.Len; m.got >= m.bytes {
		// Every packet has arrived: none still names the slot.
		tag := m.tag
		m.next, n.freeMsg = n.freeMsg, pkt.msg
		// NIC/driver delivery latency before the application sees it.
		n.Sim.ScheduleAfter(n.Cfg.HostLatency, h, engine.Event{
			Kind: evDeliver, A: int64(pkt.Src), B: int64(tag),
		})
	}
}
