package netsim

// Config sets fabric and protocol parameters. DefaultConfig matches the
// paper's testbed: 10 Gbps links, RoCEv2-class latencies, PFC and
// DCQCN available, cut-through switching.
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
	// HeaderBytes is per-packet header overhead.
	HeaderBytes int
	// CutThrough lets a switch begin forwarding after the header
	// arrives instead of the full packet.
	CutThrough bool

	// PFC (priority flow control / lossless ethernet).
	PFC     bool
	PFCXoff int // ingress bytes that trigger PAUSE
	PFCXon  int // ingress bytes that trigger RESUME

	// QueueCap bounds each egress queue when PFC is off; overflow drops.
	QueueCap int

	// ECN marking at egress queues (RED-like ramp).
	ECN     bool
	ECNKmin int
	ECNKmax int
	ECNPmax float64

	// CC selects the RoCE congestion-control policy: CCDCQCN,
	// CCTimely (delay-based), or CCPFabric (size-priority scheduling
	// at line rate). Empty means none: flows send at line rate.
	CC string

	// DCQCNGain is the alpha EWMA gain g.
	DCQCNGain float64
	// DCQCNAIRate is the additive-increase step in bits/s.
	DCQCNAIRate float64
	// DCQCNTimer is the rate-increase period.
	DCQCNTimer Time
	// CNPInterval is the minimum gap between CNPs per flow at the
	// notification point.
	CNPInterval Time

	// Timely (CC = CCTimely) delay-based control parameters: below
	// TimelyTLow RTT the rate grows additively by TimelyAddBps, above
	// TimelyTHigh it decreases multiplicatively by TimelyBeta, and in
	// between the normalised RTT gradient (EWMA weight TimelyAlpha,
	// denominator TimelyMinRTT) steers it.
	TimelyTLow   Time
	TimelyTHigh  Time
	TimelyAddBps float64
	TimelyBeta   float64
	TimelyAlpha  float64
	TimelyMinRTT Time

	// CrossbarBps is the internal crossbar bandwidth of one physical
	// switch (shared by all sub-switches under SDT).
	CrossbarBps float64
	// SDTPerHopExtra is the extra pipeline latency of a projected hop
	// (longer flow tables, tag rewriting) — the source of the paper's
	// 0.03–2 % deviation (Fig. 11).
	SDTPerHopExtra Time

	// Seed drives ECN probabilistic marking and any tie-breaking.
	Seed int64
}

// DefaultConfig returns the testbed-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		LinkBps:       10e9,
		PropDelay:     100 * Nanosecond,
		SwitchLatency: 400 * Nanosecond,
		HostLatency:   850 * Nanosecond,
		MTU:           4096,
		HeaderBytes:   66,
		CutThrough:    true,

		PFC:     true,
		PFCXoff: 80 * 1024,
		PFCXon:  60 * 1024,

		QueueCap: 512 * 1024,

		// ECN thresholds sit well below the PFC Xoff so DCQCN reacts
		// before pauses trigger — the whole point of running DCQCN on
		// lossless fabrics (Zhu et al., SIGCOMM'15).
		ECN:     false,
		ECNKmin: 16 * 1024,
		ECNKmax: 80 * 1024,
		ECNPmax: 0.25,

		DCQCNGain:   1.0 / 16,
		DCQCNAIRate: 40e6,
		DCQCNTimer:  55 * Microsecond,
		CNPInterval: 50 * Microsecond,

		// Timely thresholds sit just above the fabric's unloaded RTT
		// (a few µs) and below the RTT a full PFC-Xoff queue adds
		// (~64 µs at 10 Gbps), so the gradient zone covers the
		// operating range PFC would otherwise police.
		TimelyTLow:   25 * Microsecond,
		TimelyTHigh:  250 * Microsecond,
		TimelyAddBps: 50e6,
		TimelyBeta:   0.8,
		TimelyAlpha:  0.875,
		TimelyMinRTT: 10 * Microsecond,

		CrossbarBps:    640e9,
		SDTPerHopExtra: 8 * Nanosecond,

		Seed: 1,
	}
}

// serTime returns the serialisation time of n bytes at bps.
func serTime(n int, bps float64) Time {
	return Time(float64(n*8) / bps * float64(Second))
}
