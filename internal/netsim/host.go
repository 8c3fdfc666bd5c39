package netsim

import "repro/internal/engine"

// mailbox matches arrived messages with posted receives, MPI-style
// (exact source + tag matching, FIFO per key). Continuations are stored
// as typed engine callbacks, so the app layer stays closure-free.
// Traces tag every phase afresh, so keys are short-lived: a drained key
// is deleted, and a key's first waiter is held inline in the map.
type mailbox struct {
	arrived map[msgKey]int
	waiting map[msgKey]waiters
}

type msgKey struct {
	src int
	tag int
}

// waiters is one key's posted receives in order: first, then more.
type waiters struct {
	first engine.Callback
	more  []engine.Callback
}

func newMailbox() *mailbox {
	return &mailbox{arrived: map[msgKey]int{}, waiting: map[msgKey]waiters{}}
}

func (m *mailbox) deliver(sim *Sim, src, tag int) {
	k := msgKey{src, tag}
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
	m.arrived[k]++
}

func (m *mailbox) recv(sim *Sim, src, tag int, cont engine.Callback) {
	k := msgKey{src, tag}
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
	m.waiting[k] = waiters{first: cont}
}

// roceMsg is one in-flight RDMA message.
type roceMsg struct {
	id    int64
	dst   int
	tag   int
	bytes int
	sent  int
}

// roceQP is a per-destination queue pair; its ccPolicy paces emission
// (DCQCN, Timely, line rate — see cc.go).
type roceQP struct {
	h          *Host
	dst        int
	cc         ccPolicy
	msgs       []roceMsg // msgs[head:] wait to be sent, oldest first
	head       int
	pumping    bool
	nextSendAt Time
}

// roceEngine manages QPs and message reassembly for one host.
type roceEngine struct {
	h      *Host
	qps    map[int]*roceQP
	qpList []*roceQP // creation order, for deterministic kicks
	// reassembly: (src, msgID) -> bytes still missing.
	rx map[rxKey]rxState
	// np: last CNP time per flow (congestion notification point).
	// Entries are dropped when the flow's message completes.
	np map[int64]Time
	// nextMsg allocates message IDs.
	nextMsg int64
}

type rxKey struct {
	src int
	msg int64
}

type rxState struct {
	got   int
	total int // -1 until the final packet announces it
	tag   int
}

func newRoceEngine(h *Host) *roceEngine {
	return &roceEngine{h: h, qps: map[int]*roceQP{}, rx: map[rxKey]rxState{}, np: map[int64]Time{}}
}

func (e *roceEngine) qp(dst int) *roceQP {
	if q, ok := e.qps[dst]; ok {
		return q
	}
	q := &roceQP{h: e.h, dst: dst, cc: e.h.net.newQPCC()}
	e.qps[dst] = q
	e.qpList = append(e.qpList, q)
	return q
}

// roceFlowID packs (source vertex, per-host message counter) into one
// fabric-unique flow ID: the vertex in the low 32 bits — wide enough
// for any in-memory topology (the k=64 fat-tree's ~65k vertices
// overflowed the 16-bit packing this replaces) — and the counter
// above, staying clear of bit 62, which namespaces TCP flow IDs.
func roceFlowID(vertex int, msg int64) int64 {
	return msg<<32 | int64(uint32(vertex))
}

// Send queues an RDMA message toward dst. Message boundaries are
// preserved; completion is signalled at the receiver's mailbox.
func (e *roceEngine) Send(dst, tag, bytes int) {
	e.nextMsg++
	q := e.qp(dst)
	if q.head > 0 && len(q.msgs) == cap(q.msgs) {
		// Reuse the sent prefix before append would grow the queue.
		n := copy(q.msgs, q.msgs[q.head:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, roceMsg{id: roceFlowID(e.h.vertex, e.nextMsg), dst: dst, tag: tag, bytes: bytes})
	q.pump()
}

// backlog is the number of messages not yet fully sent.
func (q *roceQP) backlog() int { return len(q.msgs) - q.head }

// pump emits packets of the head message, paced by the CC policy's
// rate and self-clocked against the NIC queue: while more than two
// packets wait on the wire's data queues, emission pauses until the
// NIC drains (nicDrained kicks it). This enforces the rate at the
// wire even across PFC pauses.
func (q *roceQP) pump() {
	if q.pumping || q.backlog() == 0 {
		return
	}
	n := q.h.net
	if q.h.out.queuedDataBytes() > 2*(n.Cfg.MTU+n.Cfg.HeaderBytes) {
		return // NIC backlogged; resume on drain
	}
	q.pumping = true
	now := n.Sim.Now()
	q.cc.Wake(q, now)
	at := now + n.Cfg.HostLatency
	if q.nextSendAt > at {
		at = q.nextSendAt
	}
	m := &q.msgs[q.head]
	payload := n.Cfg.MTU
	if rem := m.bytes - m.sent; rem < payload {
		payload = rem
	}
	if payload < 0 {
		payload = 0
	}
	size := payload + n.Cfg.HeaderBytes
	last := m.sent+payload >= m.bytes
	pkt := allocPacket()
	*pkt = Packet{
		ID: n.pktID(), Kind: Data, Src: q.h.vertex, Dst: m.dst,
		Size: size, Len: payload, Flow: m.id, Seq: int64(m.sent),
		Tag: 0, Prio: 0, AppTag: m.tag, Last: last, MsgBytes: m.bytes,
		TS: at,
	}
	if n.cc == ccPFabric {
		// pFabric: stamp the wire class from the bytes still unsent
		// (this packet included) — the less left, the higher the
		// class; inject and the switches keep the stamp.
		pkt.Prio = sizePrioClass(m.bytes-m.sent, n.Cfg.MTU)
	}
	m.sent += payload
	if last {
		if q.head++; q.head == len(q.msgs) {
			q.msgs, q.head = q.msgs[:0], 0
		}
	}
	gap := serTime(size, q.cc.Rate())
	n.Sim.Schedule(at, q, engine.Event{Kind: evQPSend, Ptr: pkt, A: int64(gap)})
	q.cc.Sent(q, now)
}

// OnEvent dispatches QP events: paced packet injection and the CC
// policy's timer.
func (q *roceQP) OnEvent(now Time, ev engine.Event) {
	switch ev.Kind {
	case evQPSend:
		q.h.inject(ev.Ptr.(*Packet))
		q.nextSendAt = now + Time(ev.A)
		q.pumping = false
		q.pump()
	case evQPTick:
		q.cc.Tick(q, now)
	}
}

// onCNP routes a congestion notification to the CC policy.
func (q *roceQP) onCNP() { q.cc.CNP(q, q.h.net.Sim.Now()) }

// onAck routes a delay echo to the CC policy: the ack carries the data
// packet's send stamp, so now minus the stamp is the RTT sample.
func (q *roceQP) onAck(pkt *Packet) {
	now := q.h.net.Sim.Now()
	q.cc.Ack(q, now, now-pkt.TS)
}

// Send posts an RDMA message from this host toward host vertex dst
// with an application tag — the public messaging entry point.
func (h *Host) Send(dst, tag, bytes int) { h.roce.Send(dst, tag, bytes) }

// inject hands a packet to the host NIC egress queue. Under pFabric a
// data packet keeps the size-priority class the QP stamped; every
// other packet derives its class from its VC tag as usual.
func (h *Host) inject(pkt *Packet) {
	if h.net.cc != ccPFabric || pkt.Kind != Data {
		pkt.Prio = pfcClass(pkt)
	}
	pkt.arrClass = pkt.Prio // NIC-originated: arrival class = wire class
	h.out.queues[pkt.Prio].push(pkt)
	h.net.tryTransmit(h.out)
}

// nicDrained is called when a packet leaves the NIC wire queue; it
// resumes any QP pump that deferred on backlog.
func (h *Host) nicDrained() {
	for _, q := range h.roce.qpList {
		q.pump()
	}
}

// OnEvent dispatches host events (delayed application delivery).
func (h *Host) OnEvent(now Time, ev engine.Event) {
	if ev.Kind == evDeliver {
		h.mailbox.deliver(h.net.Sim, int(ev.A), int(ev.B))
	}
}

// receive handles a packet arriving at the host NIC. The caller owns
// the packet and releases it afterwards; nothing here may retain it.
func (h *Host) receive(pkt *Packet) {
	switch pkt.Kind {
	case Data:
		if tc, ok := h.tcp[pkt.Flow]; ok {
			tc.onData(pkt)
			return
		}
		h.roceData(pkt)
	case Ack:
		if tc, ok := h.tcp[pkt.Flow]; ok {
			tc.onAck(pkt)
			return
		}
		// RoCE delay-CC ack: the echoed stamp yields the RTT sample.
		h.roce.qp(pkt.Src).onAck(pkt)
	case Cnp:
		h.roce.qp(pkt.Src).onCNP()
	}
}

// roceData reassembles RDMA messages and runs the receiver half of
// the CC policy: the DCQCN notification point (CNP on ECN-marked
// arrivals, rate-limited per flow) or the Timely delay echo (an ack
// per data packet carrying the send stamp back to the source).
func (h *Host) roceData(pkt *Packet) {
	n := h.net
	e := h.roce
	h.DeliveredBytes += int64(pkt.Len)
	n.DeliveredPkt++
	if n.OnDeliver != nil {
		n.OnDeliver(n.Sim.Now())
	}
	switch n.cc {
	case ccDCQCN:
		if pkt.ECN {
			// Throttle per flow (CNPInterval documents exactly this),
			// so concurrent flows from one source each keep their own
			// congestion signal instead of starving each other's.
			if last, ok := e.np[pkt.Flow]; !ok || n.Sim.Now()-last >= n.Cfg.CNPInterval {
				e.np[pkt.Flow] = n.Sim.Now()
				cnp := allocPacket()
				*cnp = Packet{
					ID: n.pktID(), Kind: Cnp, Src: h.vertex, Dst: pkt.Src,
					Size: 64, Prio: 1,
				}
				h.inject(cnp)
			}
		}
	case ccTimely:
		ack := allocPacket()
		*ack = Packet{
			ID: n.pktID(), Kind: Ack, Src: h.vertex, Dst: pkt.Src,
			Size: 64, Flow: pkt.Flow, TS: pkt.TS,
		}
		h.inject(ack)
	}
	key := rxKey{pkt.Src, pkt.Flow}
	st, ok := e.rx[key]
	if !ok {
		st.total = -1
	}
	st.got += pkt.Len
	st.tag = pkt.AppTag
	if pkt.Last {
		st.total = pkt.MsgBytes
	}
	if st.total >= 0 && st.got >= st.total {
		delete(e.rx, key)
		delete(e.np, pkt.Flow) // release the per-flow CNP throttle slot
		// NIC/driver delivery latency before the application sees it.
		n.Sim.ScheduleAfter(n.Cfg.HostLatency, h, engine.Event{
			Kind: evDeliver, A: int64(pkt.Src), B: int64(st.tag),
		})
		return
	}
	e.rx[key] = st
}
