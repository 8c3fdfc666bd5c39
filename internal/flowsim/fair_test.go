package flowsim

import (
	"slices"
	"testing"
)

// fairShare is the slice-based entry point tests and the fuzz targets
// exercise: caps[l] is link l's capacity, links[f] lists the links flow
// f crosses, and rates[f] receives f's allocation. It lays out a table,
// adds every flow as the engine adds its active ones, and refills.
func fairShare(caps []float64, links [][]int32, rates []float64) {
	t, active := sliceTable(caps, links)
	for _, f := range active {
		t.add(f)
	}
	t.refill()
	for f := range rates {
		rates[f] = t.st[f].rate
	}
}

// sliceTable lays out a fair-share table for the flows of links over
// links with capacities caps, and returns it with every flow's index;
// no flow is added yet.
func sliceTable(caps []float64, links [][]int32) (*fairTable, []int32) {
	paths := make([]pathInfo, len(links))
	st := make([]flowState, len(links))
	all := make([]int32, len(links))
	for f := range links {
		paths[f].links = links[f]
		st[f].path = &paths[f]
		all[f] = int32(f)
	}
	t := newFairTable(st, len(caps), func(gl int32) float64 { return caps[gl] })
	return &t, all
}

// xlShapedInput builds a fair-share input shaped like flow-xl's flows:
// nf flows of six links, all at one capacity, between 256 ranks spread
// over 48 pods. A flow leaves its source rank's uplink and enters its
// destination rank's downlink, which every flow of that rank shares,
// and draws four fabric links without repeats: two from the pool of 64
// links of the source's pod and two from the destination's pod, or, for
// one flow in four, as a flow through the core, one of them from a
// core pool of 128 that every pod shares. The first 175 flows, one
// recompute's active set, fall into 29 components, the largest holding
// 118 flows. In BenchmarkRecompute's cycle a refill walks 66 flows on
// average, and 65 % of the flows walked are in components of 128 flows
// or more (flow-xl: 58.6 flows a fill, 64 % of the work in components
// of 128–255 flows, which the shared rank links make).
func xlShapedInput(nf int) ([]float64, [][]int32) {
	const ranks, pods, podLinks, core = 256, 48, 64, 128
	const fabric = pods*podLinks + core
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	links := make([][]int32, nf)
	for f := range links {
		src := int(next() % ranks)
		dst := int(next() % (ranks - 1))
		if dst >= src {
			dst++
		}
		ls := []int32{int32(fabric + 2*src)}
		// draw appends a link from the n links at base until ls holds
		// to links.
		draw := func(to, base, n int) {
			for len(ls) < to {
				l := int32(base + int(next()%uint64(n)))
				if !slices.Contains(ls, l) {
					ls = append(ls, l)
				}
			}
		}
		draw(3, src*pods/ranks*podLinks, podLinks)
		if next()%4 == 0 {
			draw(4, pods*podLinks, core)
		}
		draw(5, dst*pods/ranks*podLinks, podLinks)
		links[f] = append(ls, int32(fabric+2*dst+1))
	}
	caps := make([]float64, fabric+2*ranks)
	for l := range caps {
		caps[l] = 1.0 / 64
	}
	return caps, links
}

// BenchmarkFairShare times a refill of every component of a
// flow-xl-shaped active set of 175 flows on a kept table; steady state
// allocates nothing.
func BenchmarkFairShare(b *testing.B) {
	t, active := sliceTable(xlShapedInput(175))
	for _, f := range active {
		t.add(f)
	}
	t.refill()
	b.ReportAllocs()
	for b.Loop() {
		for l := range t.links {
			t.touched = append(t.touched, int32(l))
		}
		t.refill()
	}
}

// BenchmarkRecompute times the engine's cycle on a flow-xl-shaped
// active set: one flow completes, the next arrives, and the components
// they touch are refilled. 175 flows are active out of a ring of 350,
// so links empty and fill up again and local indices are recycled;
// steady state allocates nothing.
func BenchmarkRecompute(b *testing.B) {
	const nActive = 175
	t, ring := sliceTable(xlShapedInput(2 * nActive))
	active := make([]int32, nActive)
	copy(active, ring)
	for _, f := range active {
		t.add(f)
	}
	t.refill()
	next := nActive
	b.ReportAllocs()
	for b.Loop() {
		i := next % nActive
		t.remove(active[i])
		active[i] = ring[next%len(ring)]
		t.add(active[i])
		t.refill()
		next++
	}
}
