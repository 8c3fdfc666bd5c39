package flowsim

import (
	"math"
	"testing"
)

// oracleScratch is the plain progressive-filling loop the grouped
// fairScratch.run must reproduce bit for bit: one residual per link
// updated every round, every unfrozen flow's rate raised every round,
// and a per-flow saturation scan. Its run is fairScratch.run as it was
// before links were grouped, apart from the explicit float64(s*c)
// rounding that keeps both sides free of fused multiply-adds on every
// architecture.
type oracleScratch struct {
	rem      []float64
	cnt      []int32
	unfrozen []int32
}

func (fs *oracleScratch) run(caps []float64, links [][]int32, rates []float64) {
	const relEps = 1e-9
	nf := len(links)
	fs.rem = append(fs.rem[:0], caps...)
	fs.cnt = fs.cnt[:0]
	for range caps {
		fs.cnt = append(fs.cnt, 0)
	}
	fs.unfrozen = fs.unfrozen[:0]
	for f := 0; f < nf; f++ {
		rates[f] = 0
		for _, l := range links[f] {
			fs.cnt[l]++
		}
		fs.unfrozen = append(fs.unfrozen, int32(f))
	}
	rem, cnt, unfrozen := fs.rem, fs.cnt, fs.unfrozen
	for len(unfrozen) > 0 {
		// The uniform rate increment every unfrozen flow can still take:
		// the tightest link's residual capacity split across its flows.
		s := -1.0
		for l := range rem {
			if cnt[l] > 0 {
				if v := rem[l] / float64(cnt[l]); s < 0 || v < s {
					s = v
				}
			}
		}
		if s < 0 {
			// No unfrozen flow crosses any link (defensive; links[f] is
			// validated non-empty by the engine) — freeze the rest as-is.
			break
		}
		for _, f := range unfrozen {
			rates[f] += s
		}
		for l := range rem {
			if cnt[l] > 0 {
				rem[l] -= float64(s * float64(cnt[l]))
			}
		}
		// Keep the flows that cross no saturated link; freeing a frozen
		// flow's links mid-compaction is safe because the saturation test
		// reads rem, not cnt.
		out := unfrozen[:0]
		for _, f := range unfrozen {
			saturated := false
			for _, l := range links[f] {
				if rem[l] <= relEps*caps[l] {
					saturated = true
					break
				}
			}
			if !saturated {
				out = append(out, f)
				continue
			}
			for _, l := range links[f] {
				cnt[l]--
			}
		}
		unfrozen = out
	}
}

// oracleCapPalette holds the capacities fuzz inputs draw from: repeats
// so that links share a capacity and form groups, distinct values so
// that some links start individual, and zero for dead links. It holds
// every capacity fairShareTraps uses, so the traps seed the fuzzer.
var oracleCapPalette = [16]float64{
	1, 1, 1, 0.3, 0.3, 2.5, 0, 0,
	1 + 2e-12, 0.5, 5, 0.2, 7, 0.1, 1e-3, 3,
}

// decodeOracleInput turns fuzz bytes into a fair-share input: capBytes[l]
// picks link l's capacity from oracleCapPalette (at most 64 links), and
// each byte of pathBytes appends link b&0x7f (mod the link count) to the
// current flow, a set high bit ending the flow (at most 256 flows). A
// flow may cross a link twice.
func decodeOracleInput(capBytes, pathBytes []byte) ([]float64, [][]int32) {
	nl := min(len(capBytes), 64)
	if nl == 0 {
		return nil, nil
	}
	caps := make([]float64, nl)
	for l := range caps {
		caps[l] = oracleCapPalette[capBytes[l]%16]
	}
	var links [][]int32
	var cur []int32
	for _, b := range pathBytes {
		if len(links) == 256 {
			break
		}
		cur = append(cur, int32(int(b&0x7f)%nl))
		if b&0x80 != 0 {
			links = append(links, cur)
			cur = nil
		}
	}
	if len(cur) > 0 && len(links) < 256 {
		links = append(links, cur)
	}
	return caps, links
}

// encodeOracleInput is decodeOracleInput's inverse; every capacity must
// be in oracleCapPalette and every link below 64.
func encodeOracleInput(caps []float64, links [][]int32) ([]byte, []byte) {
	capBytes := make([]byte, len(caps))
	for l, c := range caps {
		i := 0
		for math.Float64bits(oracleCapPalette[i]) != math.Float64bits(c) {
			i++
		}
		capBytes[l] = byte(i)
	}
	var path []byte
	for _, ls := range links {
		for i, l := range ls {
			b := byte(l)
			if i == len(ls)-1 {
				b |= 0x80
			}
			path = append(path, b)
		}
	}
	return capBytes, path
}

// oracleSeed generates an input of nf six-link flows over nl links with
// capacities from the palette, so counts repeat and links group.
func oracleSeed(nl, nf int, seed uint64) ([]byte, []byte) {
	s := seed*2654435761 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	capBytes := make([]byte, nl)
	for l := range capBytes {
		capBytes[l] = byte(next() % 16)
	}
	var path []byte
	for f := 0; f < nf; f++ {
		for i := 0; i < 6; i++ {
			b := byte(next() % uint64(nl))
			if i == 5 {
				b |= 0x80
			}
			path = append(path, b)
		}
	}
	return capBytes, path
}

// FuzzFairShareOracle requires the grouped allocation to return exactly
// the oracle's bits, on inputs where links share capacities and counts
// (so groups form), differ in capacity (so some start individual), are
// dead, or are crossed twice by one flow. The hand-built traps of
// TestFairShareGroupTraps seed it.
func FuzzFairShareOracle(f *testing.F) {
	for _, tc := range fairShareTraps {
		c, p := encodeOracleInput(tc.caps, tc.links)
		f.Add(c, p)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		c, p := oracleSeed(64, 200, seed)
		f.Add(c, p)
	}
	c, p := oracleSeed(16, 40, 5)
	f.Add(c, p)
	f.Fuzz(func(t *testing.T, capBytes, pathBytes []byte) {
		caps, links := decodeOracleInput(capBytes, pathBytes)
		var fs fairScratch
		var oracle oracleScratch
		// Half the flows first, then all of them through the same
		// scratch: the second call starts from the first one's leftovers.
		for _, ls := range [][][]int32{links[:len(links)/2], links} {
			want := make([]float64, len(ls))
			oracle.run(caps, ls, want)
			got := make([]float64, len(ls))
			fs.run(caps, ls, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("flow %d of %d: rate %v (%#x), oracle %v (%#x)\ncaps=%v\nlinks=%v",
						i, len(ls), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), caps, ls)
				}
			}
		}
	})
}
