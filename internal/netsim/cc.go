package netsim

// Congestion control for the RoCE host plane. A fabric runs one
// policy (Config.CC), which decides each queue pair's pacing rate from
// the signals the fabric feeds back — ECN echoes (CNPs), delay echoes
// (acks carrying the send stamp), and timer ticks. A policy with state
// keeps it in a per-Network slab at the QP's index, and the QP path
// dispatches on the fabric's ccKind. The policies:
//
//   - dcqcnCC:  the DCQCN rate law (Zhu et al., SIGCOMM'15) —
//     alpha-EWMA multiplicative decrease on CNP, timed additive
//     increase toward line rate.
//   - timelyCC: delay-based control in the style of TIMELY (Mittal et
//     al., SIGCOMM'15): the receiver acks every data packet
//     echoing its send timestamp, and the sender adjusts rate
//     off the RTT gradient.
//   - line rate: no rate adaptation and no state (Config.CC left
//     empty, and the rate side of pFabric, whose congestion
//     response is size-priority scheduling — see sizePrioClass).
//
// The rate laws proper (dcqcnState.increase/decrease, timelyCC.sample)
// are pure state-machine steps with no engine access, so unit tests
// and the FuzzCCPolicy target drive them directly.

import (
	"fmt"
	"strings"

	"repro/internal/engine"
)

// Selectable congestion-control policy names (Config.CC).
const (
	// CCDCQCN is ECN-driven DCQCN (switches ECN marking on).
	CCDCQCN = "dcqcn"
	// CCTimely is delay-based CC off per-packet RTT echoes.
	CCTimely = "timely"
	// CCPFabric is size-aware priority scheduling at line rate.
	CCPFabric = "pfabric"
)

// CCPolicies lists the selectable congestion-control policies.
func CCPolicies() []string { return []string{CCDCQCN, CCTimely, CCPFabric} }

// ccKind is the resolved policy of one fabric.
type ccKind int

const (
	ccNone ccKind = iota
	ccDCQCN
	ccTimely
	ccPFabric
)

// ccKindOf resolves Config.CC; the empty string is plain line rate.
func ccKindOf(cfg *Config) (ccKind, error) {
	switch cfg.CC {
	case "":
		return ccNone, nil
	case CCDCQCN:
		return ccDCQCN, nil
	case CCTimely:
		return ccTimely, nil
	case CCPFabric:
		return ccPFabric, nil
	}
	return ccNone, fmt.Errorf("netsim: unknown congestion-control policy %q (valid: %s)",
		cfg.CC, strings.Join(CCPolicies(), ", "))
}

// ccRate returns QP qi's current pacing rate in bits/s.
func (n *Network) ccRate(qi int32) float64 {
	switch n.cc {
	case ccDCQCN:
		return n.dcqcn[qi].rate
	case ccTimely:
		return n.timely[qi].rate
	}
	return n.Cfg.LinkBps
}

// dcqcnState is the pure DCQCN rate law: current rate, the target the
// increase steps recover toward, and the alpha congestion estimate.
type dcqcnState struct {
	line   float64 // link rate, the cap
	rate   float64
	target float64
	alpha  float64
}

func newDCQCNState(cfg *Config) dcqcnState {
	return dcqcnState{line: cfg.LinkBps, rate: cfg.LinkBps, target: cfg.LinkBps, alpha: 1}
}

// decrease applies the CNP reaction: bump alpha toward 1, remember the
// pre-cut rate as the recovery target, cut multiplicatively, and floor
// at 1% of line so a flow can always probe its way back. Products are
// rounded explicitly (float64(x*y)) so that no architecture fuses them
// into the sums.
func (s *dcqcnState) decrease() {
	s.alpha = float64((1-dcqcnGain)*s.alpha) + dcqcnGain
	s.target = s.rate
	s.rate *= 1 - float64(s.alpha/2)
	if min := s.line / 100; s.rate < min {
		s.rate = min
	}
}

// increase applies one rate-increase tick: additive target growth
// clamped at line, rate averaged halfway toward it, alpha decayed.
func (s *dcqcnState) increase() {
	s.target += dcqcnAIRate
	if s.target > s.line {
		s.target = s.line
	}
	s.rate = (s.rate + s.target) / 2
	s.alpha *= 1 - dcqcnGain
}

// recovered reports whether an idle QP's timer may disarm: rate is
// back within 1% of line.
func (s *dcqcnState) recovered() bool { return s.rate >= s.line*0.99 }

// dcqcnCC runs the DCQCN law on the engine's evQPTick timer (an event
// on the Network naming the QP by Ref), with the idle fix: when the QP
// has nothing to send, the timer parks instead of self-rescheduling
// every period until recovery (which burned one event per 55µs per
// idle QP). Parked state records the absolute next tick time; catchUp
// replays the elided ticks on the next emission or CNP, so the rate
// trajectory is exactly what the real events would have produced.
type dcqcnCC struct {
	dcqcnState
	timerOn bool
	// parked: timerOn is logically true but no event is scheduled;
	// nextTick is the absolute time the next virtual tick fires.
	parked   bool
	nextTick Time
}

// catchUp replays ticks elided while parked, when QP qi is about to
// emit or take a CNP. Ticks strictly before now apply immediately (a
// tick at exactly now would, as a real event, fire after the currently
// executing handler, so it stays pending); if the QP is still below
// recovery the real timer re-arms at the original phase, otherwise it
// disarms just as a real tick would have.
func (c *dcqcnCC) catchUp(n *Network, qi int32, now Time) {
	if !c.parked {
		return
	}
	for c.nextTick < now {
		c.increase()
		if c.recovered() {
			c.parked = false
			c.timerOn = false
			return
		}
		c.nextTick += dcqcnTimer
	}
	c.parked = false
	n.Sim.Schedule(c.nextTick, n, engine.Event{Kind: evQPTick, Ref: qi})
}

// arm starts the timer after an emission or a CNP.
func (c *dcqcnCC) arm(n *Network, qi int32) {
	if c.timerOn {
		return
	}
	c.timerOn = true
	n.Sim.ScheduleAfter(dcqcnTimer, n, engine.Event{Kind: evQPTick, Ref: qi})
}

func (c *dcqcnCC) cnp(n *Network, qi int32, now Time) {
	c.catchUp(n, qi, now)
	c.decrease()
	c.arm(n, qi)
}

func (c *dcqcnCC) tick(n *Network, qi int32, now Time) {
	c.increase()
	if n.qps[qi].head == 0 { // nothing left to send
		if c.recovered() {
			c.timerOn = false
			return
		}
		// Idle but still below line: park instead of rescheduling —
		// catchUp replays the ticks the engine never has to run.
		c.parked = true
		c.nextTick = now + dcqcnTimer
		return
	}
	n.Sim.ScheduleAfter(dcqcnTimer, n, engine.Event{Kind: evQPTick, Ref: qi})
}

// timelyCC is delay-based congestion control in the style of TIMELY:
// the receiver echoes every data packet's send stamp on a control-class
// ack, and the sender steers rate off the RTT and its gradient —
// additive increase below TLow, multiplicative decrease above THigh,
// and gradient-proportional decrease (or hyperactive increase after a
// run of negative gradients) in between.
type timelyCC struct {
	line    float64
	rate    float64
	prevRTT Time
	rttDiff float64
	negRun  int // consecutive non-positive gradients (HAI trigger)
}

func newTimelyCC(cfg *Config) timelyCC {
	return timelyCC{line: cfg.LinkBps, rate: cfg.LinkBps}
}

// sample applies the gradient law to one RTT measurement. Pure (no
// engine access): the boundary tests and FuzzCCPolicy drive it with
// arbitrary RTT sequences. Products are rounded explicitly, as in
// dcqcnState.decrease.
func (c *timelyCC) sample(rtt Time) {
	if rtt <= 0 {
		return
	}
	if c.prevRTT == 0 {
		c.prevRTT = rtt
		return
	}
	diff := float64(rtt - c.prevRTT)
	c.prevRTT = rtt
	c.rttDiff = float64((1-timelyAlpha)*c.rttDiff) + float64(timelyAlpha*diff)
	grad := c.rttDiff / float64(timelyMinRTT)
	switch {
	case rtt < timelyTLow:
		c.negRun = 0
		c.rate += timelyAddBps
	case rtt > timelyTHigh:
		c.negRun = 0
		c.rate *= 1 - float64(timelyBeta*(1-float64(timelyTHigh)/float64(rtt)))
	case grad <= 0:
		c.negRun++
		step := timelyAddBps
		if c.negRun >= 5 {
			step = 5 * timelyAddBps // hyperactive increase
		}
		c.rate += step
	default:
		c.negRun = 0
		if grad > 1 {
			grad = 1
		}
		c.rate *= 1 - float64(timelyBeta*grad)
	}
	if c.rate > c.line {
		c.rate = c.line
	}
	if min := c.line / 100; c.rate < min {
		c.rate = min
	}
}

// sizePrioClass maps a message's remaining bytes (current packet
// included) to a PFC data class, pFabric-style: the less left to
// send, the higher the class, so strict-priority dequeue approximates
// shortest-remaining-first. Buckets are powers of 4 of the MTU across
// the data classes (ctrlClass-1 down to 0); control traffic keeps its
// own unpaused top class. This replaces VC-tag class separation, so it
// suits up/down-routed fabrics (fat-tree) whose deadlock freedom does
// not rely on VC transitions.
func sizePrioClass(remaining, mtu int) int {
	cls := ctrlClass - 1
	for thresh := mtu; cls > 0 && remaining > thresh; cls-- {
		thresh *= 4
	}
	return cls
}
