package netsim

// GoodputSample is one per-host bandwidth measurement bin.
type GoodputSample struct {
	At   Time
	Gbps float64
}

// LinkLoads snapshots transmitted bytes per logical edge, indexed by
// edge ID, both directions summed — the Network Monitor feed for
// adaptive routing. Edge e's directions are links 2e and 2e+1.
func (n *Network) LinkLoads() []float64 {
	out := make([]float64, len(n.links)/2)
	for e := range out {
		out[e] = float64(n.links[2*e].TxBytes) + float64(n.links[2*e+1].TxBytes)
	}
	return out
}
