package netsim

// MeasurePingpong runs an IMB-style Pingpong between hosts a and b:
// reps round trips of a message of the given payload size, returning
// the RTT of each repetition (§VI-B1's latency methodology).
func MeasurePingpong(n *Network, a, b int, bytes, reps int) []Time {
	rtts := make([]Time, 0, reps)
	ha, hb := n.Host(a), n.Host(b)
	const tag = 7001

	// Responder: echo forever. (Measurement harness, cold path: the
	// closure convenience API is fine here.)
	var echo func()
	echo = func() {
		hb.Recv(a, tag, func() {
			hb.Send(a, tag, bytes)
			echo()
		})
	}
	echo()

	var start Time
	var ping func(i int)
	ping = func(i int) {
		if i >= reps {
			return
		}
		start = n.Sim.Now()
		ha.Send(b, tag, bytes)
		ha.Recv(b, tag, func() {
			rtts = append(rtts, n.Sim.Now()-start)
			ping(i + 1)
		})
	}
	n.Sim.After(0, func() { ping(0) })
	n.Sim.Run(0)
	return rtts
}

// MeanRTT averages a sample set.
func MeanRTT(rtts []Time) Time {
	if len(rtts) == 0 {
		return 0
	}
	var s Time
	for _, r := range rtts {
		s += r
	}
	return s / Time(len(rtts))
}

// GoodputSample is one per-host bandwidth measurement bin.
type GoodputSample struct {
	At   Time
	Gbps float64
}

// LinkLoads snapshots transmitted bytes per logical edge (both
// directions summed) — the Network Monitor feed for adaptive routing.
func (n *Network) LinkLoads() map[int]float64 {
	out := map[int]float64{}
	for _, l := range n.links {
		out[l.EdgeID] += float64(l.TxBytes)
	}
	return out
}

// ResetLinkLoads zeroes the per-link byte counters (telemetry epoch).
func (n *Network) ResetLinkLoads() {
	for _, l := range n.links {
		l.TxBytes = 0
	}
}
