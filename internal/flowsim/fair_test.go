package flowsim

import "testing"

// xlShapedInput builds a fair-share input shaped like one flow-xl
// recompute: 175 flows of six links — a private first and last link
// (the hosts' NIC links) and four fabric links drawn without repeats
// from a pool of 512 — which uses ≈ 730 links, ≈ 70 % of them by a
// single flow, all at one capacity.
func xlShapedInput() ([]float64, [][]int32) {
	const nf, pool = 175, 512
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	links := make([][]int32, nf)
	for f := range links {
		ls := []int32{int32(pool + 2*f)}
		for len(ls) < 5 {
			l := int32(next() % pool)
			dup := false
			for _, m := range ls[1:] {
				dup = dup || m == l
			}
			if !dup {
				ls = append(ls, l)
			}
		}
		links[f] = append(ls, int32(pool+2*f+1))
	}
	caps := make([]float64, pool+2*nf)
	for l := range caps {
		caps[l] = 1.0 / 64
	}
	return caps, links
}

// BenchmarkFairShare times one allocation on a flow-xl-shaped input
// with the engine's reused scratch; steady state allocates nothing.
func BenchmarkFairShare(b *testing.B) {
	caps, links := xlShapedInput()
	rates := make([]float64, len(links))
	var fs fairScratch
	fs.run(caps, links, rates)
	b.ReportAllocs()
	for b.Loop() {
		fs.run(caps, links, rates)
	}
}
