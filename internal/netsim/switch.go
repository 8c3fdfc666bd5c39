package netsim

import "repro/internal/engine"

// receive runs the switch pipeline on an arriving packet: forwarding
// lookup, crossbar transfer, egress enqueue with ECN marking, and PFC
// threshold checks.
func (s *SimSwitch) receive(pkt *Packet) {
	n := s.net
	out, newTag, ok := n.Fwd.Forward(s.vertex, pkt.inPort, pkt)
	if !ok || out <= 0 || out >= len(s.outPorts) || s.outPorts[out] == nil {
		n.TotalDrops++
		n.pkts.release(pkt)
		return
	}
	// The PFC class the packet arrived with (before any VC rewrite):
	// this is what the upstream transmitted on and what a pause must
	// name. Under pFabric, data travels on its stamped size class.
	arrCls := pfcClass(pkt)
	if n.cc == ccPFabric && pkt.Kind == Data {
		arrCls = pkt.Prio
	}
	pkt.Tag = newTag
	d := n.Cfg.SwitchLatency + s.crossbar.delay(n.Sim.Now(), pkt.Size)
	n.Sim.ScheduleAfter(d, s, engine.Event{
		Kind: evSwEnqueue, Ref: pkt.idx,
		A: int64(out), B: int64(pkt.inPort)<<4 | int64(arrCls),
	})
}

// OnEvent dispatches switch events (crossbar-traversal completions).
func (s *SimSwitch) OnEvent(now Time, ev engine.Event) {
	if ev.Kind == evSwEnqueue {
		s.enqueue(s.outPorts[ev.A], int(ev.B>>4), int(ev.B&0xf), s.net.pkts.at(ev.Ref))
	}
}

// isData reports whether the class carries pausable data traffic.
func isData(class int) bool { return class < ctrlClass }

// enqueue places the packet on the egress queue, applying tail drop
// (lossy mode), ECN marking, and PFC pause generation.
func (s *SimSwitch) enqueue(o *OutPort, inPort, arrCls int, pkt *Packet) {
	n := s.net
	// The egress traffic class follows the packet's (possibly
	// rewritten) VC; ingress accounting keeps the arrival class. Under
	// pFabric the sender's size-priority stamp IS the class and rides
	// the packet end to end, so strict-priority dequeue approximates
	// shortest-remaining-first at every hop.
	if n.cc != ccPFabric || pkt.Kind != Data {
		pkt.Prio = pfcClass(pkt)
	}
	pkt.arrClass = arrCls
	if !n.Cfg.PFC && isData(pkt.Prio) && o.queuedBytes()+pkt.Size > queueCap {
		n.TotalDrops++
		n.pkts.release(pkt)
		return
	}
	// ECN marking (RED-style ramp on egress occupancy), data class
	// only, for the one policy that reacts to it.
	if n.cc == ccDCQCN && isData(pkt.Prio) {
		q := o.queuedBytes()
		if q > ecnKmax {
			pkt.ECN = true
			n.EcnMarks++
		} else if q > ecnKmin {
			p := ecnPmax * float64(q-ecnKmin) / float64(ecnKmax-ecnKmin)
			if n.ecnRand().Float64() < p {
				pkt.ECN = true
				n.EcnMarks++
			}
		}
	}
	pkt.inPort = inPort
	o.queues[pkt.Prio].push(&n.rings, pkt)
	// PFC ingress accounting per (ingress port, arrival class): the
	// pause frame names the class the upstream transmits.
	if inPort > 0 && inPort < len(s.ingressBytes) {
		s.ingressBytes[inPort][arrCls] += pkt.Size
		if n.Cfg.PFC && isData(arrCls) && !s.pfcSent[inPort][arrCls] &&
			s.ingressBytes[inPort][arrCls] > pfcXoff {
			s.pfcSent[inPort][arrCls] = true
			up := s.upstream[inPort]
			if up != nil {
				n.PausesSent++
				n.Sim.Schedule(n.Sim.Now()+n.Cfg.PropDelay+500*Nanosecond, n, engine.Event{
					Kind: evPfcPause, Ref: int32(up.link.id), A: int64(arrCls),
				})
			}
		}
	}
	n.tryTransmit(o)
}
