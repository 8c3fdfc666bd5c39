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
	for i := range n.links {
		out[n.links[i].EdgeID] += float64(n.links[i].TxBytes)
	}
	return out
}
