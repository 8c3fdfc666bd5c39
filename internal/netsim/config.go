package netsim

// Config sets the fabric parameters a caller varies. DefaultConfig
// matches the paper's testbed: 10 Gbps links, RoCEv2-class latencies,
// PFC on and no congestion control. Everything the testbed's hardware
// and the published rate laws fix is a constant below; switches are
// always cut-through.
type Config struct {
	// LinkBps is link bandwidth in bits/s.
	LinkBps float64
	// PropDelay is per-link propagation (cable + PHY).
	PropDelay Time
	// SwitchLatency is the fixed pipeline latency per switch traversal.
	SwitchLatency Time
	// HostLatency is NIC/driver latency applied at injection and
	// delivery.
	HostLatency Time
	// MTU is the maximum payload bytes per packet.
	MTU int

	// PFC turns on priority flow control (lossless ethernet); with it
	// off, an egress queue drops past queueCap.
	PFC bool

	// CC selects the RoCE congestion-control policy: CCDCQCN,
	// CCTimely (delay-based), or CCPFabric (size-priority scheduling
	// at line rate). Empty means none: flows send at line rate. ECN
	// marking is on exactly when CC is CCDCQCN, the one policy that
	// reacts to it.
	CC string

	// CrossbarBps is the internal crossbar bandwidth of one physical
	// switch (shared by all sub-switches under SDT).
	CrossbarBps float64
	// SDTPerHopExtra is the extra pipeline latency of a projected hop
	// (longer flow tables, tag rewriting) — the source of the paper's
	// 0.03–2 % deviation (Fig. 11).
	SDTPerHopExtra Time
}

// HeaderBytes is the per-packet header overhead.
const HeaderBytes = 66

// Fixed fabric parameters.
const (
	// PFC thresholds: ingress bytes that trigger PAUSE and RESUME.
	pfcXoff = 80 * 1024
	pfcXon  = 60 * 1024

	// queueCap bounds each egress queue when PFC is off; overflow drops.
	queueCap = 512 * 1024

	// ECN marking at egress queues (RED-like ramp). The thresholds sit
	// well below pfcXoff so DCQCN reacts before pauses trigger — the
	// whole point of running DCQCN on lossless fabrics (Zhu et al.,
	// SIGCOMM'15).
	ecnKmin = 16 * 1024
	ecnKmax = 80 * 1024
	ecnPmax = 0.25
	// ecnSeed seeds the marking ramp's random draws.
	ecnSeed = 1

	// DCQCN: the alpha EWMA gain g, the additive-increase step in
	// bits/s, the rate-increase period, and the minimum gap between
	// CNPs per flow at the notification point.
	dcqcnGain   = 1.0 / 16
	dcqcnAIRate = 40e6
	dcqcnTimer  = 55 * Microsecond
	cnpInterval = 50 * Microsecond

	// Timely delay-based control: below timelyTLow RTT the rate grows
	// additively by timelyAddBps, above timelyTHigh it decreases
	// multiplicatively by timelyBeta, and in between the normalised
	// RTT gradient (EWMA weight timelyAlpha, denominator timelyMinRTT)
	// steers it. The thresholds sit just above the fabric's unloaded
	// RTT (a few µs) and below the RTT a full PFC-Xoff queue adds
	// (~64 µs at 10 Gbps), so the gradient zone covers the operating
	// range PFC would otherwise police.
	timelyTLow   = 25 * Microsecond
	timelyTHigh  = 250 * Microsecond
	timelyAddBps = 50e6
	timelyBeta   = 0.8
	timelyAlpha  = 0.875
	timelyMinRTT = 10 * Microsecond
)

// DefaultConfig returns the testbed-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		LinkBps:       10e9,
		PropDelay:     100 * Nanosecond,
		SwitchLatency: 400 * Nanosecond,
		HostLatency:   850 * Nanosecond,
		MTU:           4096,

		PFC: true,

		CrossbarBps:    640e9,
		SDTPerHopExtra: 8 * Nanosecond,
	}
}

// serTime returns the serialisation time of n bytes at bps.
func serTime(n int, bps float64) Time {
	return Time(float64(n*8) / bps * float64(Second))
}
