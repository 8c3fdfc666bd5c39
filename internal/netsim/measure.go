package netsim

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
