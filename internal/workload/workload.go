// Package workload generates the MPI-style application traces the
// paper evaluates (§VI-D): IMB Pingpong and Alltoall, HPCG, HPL,
// miniGhost and miniFE. Each generator returns one operation list per
// rank for replay in the netsim application layer — the same
// trace-driven methodology the paper's simulator uses ("the simulator
// uses the traces collected from running an HPC application on real
// computing nodes").
//
// The communication patterns follow the published structure of each
// benchmark; compute phases are synthetic constants calibrated to give
// ACTs in the ranges Table IV reports. Absolute times are not the
// reproduction target — the SDT-vs-simulator ACT agreement and the
// relative evaluation-time blowup are.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
)

// Trace is a complete application: one program per rank.
type Trace struct {
	Name     string
	Ranks    int
	Programs [][]netsim.Op
}

// tagger hands out collision-free MPI tags per logical phase.
type tagger struct{ next int }

func (t *tagger) phase() int {
	t.next += 1 << 12
	return t.next
}

// Pingpong is the IMB Pingpong: reps round trips of `bytes` between
// ranks 0 and 1 (§VI-B1 uses -msglen sweeps of this benchmark).
func Pingpong(bytes, reps int) *Trace {
	var tg tagger
	p0 := []netsim.Op{}
	p1 := []netsim.Op{}
	for i := 0; i < reps; i++ {
		tag := tg.phase()
		p0 = append(p0,
			netsim.Op{Kind: netsim.OpSend, Peer: 1, Bytes: bytes, MTag: tag},
			netsim.Op{Kind: netsim.OpRecv, Peer: 1, MTag: tag + 1},
		)
		p1 = append(p1,
			netsim.Op{Kind: netsim.OpRecv, Peer: 0, MTag: tag},
			netsim.Op{Kind: netsim.OpSend, Peer: 0, Bytes: bytes, MTag: tag + 1},
		)
	}
	return &Trace{Name: fmt.Sprintf("imb-pingpong-%dB", bytes), Ranks: 2, Programs: [][]netsim.Op{p0, p1}}
}

// Alltoall is the IMB Alltoall: reps rounds in which every rank sends
// `bytes` to every other rank (the pure-traffic benchmark of Fig. 13).
func Alltoall(n, bytes, reps int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	for rep := 0; rep < reps; rep++ {
		base := tg.phase()
		for r := 0; r < n; r++ {
			for p := 0; p < n; p++ {
				if p == r {
					continue
				}
				progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: p, Bytes: bytes, MTag: base + r})
			}
		}
		for r := 0; r < n; r++ {
			for p := 0; p < n; p++ {
				if p == r {
					continue
				}
				progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: p, MTag: base + p})
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("imb-alltoall-%d", n), Ranks: n, Programs: progs}
}

// AllreduceRing is a ring allreduce of `bytes` (reduce-scatter +
// allgather), the collective underlying HPCG's dot products.
func AllreduceRing(n, bytes, reps int, tg *tagger) *Trace {
	if tg == nil {
		tg = &tagger{}
	}
	progs := make([][]netsim.Op, n)
	if n == 1 {
		return &Trace{Name: "allreduce", Ranks: 1, Programs: progs}
	}
	chunk := bytes / n
	if chunk < 1 {
		chunk = 1
	}
	for rep := 0; rep < reps; rep++ {
		for phase := 0; phase < 2*(n-1); phase++ {
			base := tg.phase()
			for r := 0; r < n; r++ {
				nxt := (r + 1) % n
				prv := (r - 1 + n) % n
				progs[r] = append(progs[r],
					netsim.Op{Kind: netsim.OpSend, Peer: nxt, Bytes: chunk, MTag: base + r},
					netsim.Op{Kind: netsim.OpRecv, Peer: prv, MTag: base + prv},
				)
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("allreduce-%dB", bytes), Ranks: n, Programs: progs}
}

// grid2D arranges n ranks into the most square (px, py) grid.
func grid2D(n int) (int, int) {
	px := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			px = d
		}
	}
	return px, n / px
}

// HaloExchange2D is miniGhost's communication skeleton: iters sweeps of
// 2D nearest-neighbour halo exchange (non-periodic) with a compute
// phase per sweep.
func HaloExchange2D(n, haloBytes, iters int, compute netsim.Time) *Trace {
	px, py := grid2D(n)
	var tg tagger
	progs := make([][]netsim.Op, n)
	rankAt := func(x, y int) int { return y*px + x }
	for it := 0; it < iters; it++ {
		base := tg.phase()
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				r := rankAt(x, y)
				type nb struct{ peer, dir int }
				var nbs []nb
				if x > 0 {
					nbs = append(nbs, nb{rankAt(x-1, y), 0})
				}
				if x < px-1 {
					nbs = append(nbs, nb{rankAt(x+1, y), 1})
				}
				if y > 0 {
					nbs = append(nbs, nb{rankAt(x, y-1), 2})
				}
				if y < py-1 {
					nbs = append(nbs, nb{rankAt(x, y+1), 3})
				}
				for _, v := range nbs {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: v.peer, Bytes: haloBytes, MTag: base + r*8 + v.dir})
				}
				for _, v := range nbs {
					// The matching tag is the neighbour's send toward us:
					// direction is mirrored (0<->1, 2<->3).
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: v.peer, MTag: base + v.peer*8 + (v.dir ^ 1)})
				}
				if compute > 0 {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: compute})
				}
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("minighost-%d", n), Ranks: n, Programs: progs}
}

// MiniGhost is the miniGhost proxy app (halo exchange + stencil
// compute) with Table IV-scale defaults.
func MiniGhost(n int) *Trace {
	t := HaloExchange2D(n, 256*1024, 40, 2*netsim.Millisecond)
	t.Name = fmt.Sprintf("miniGhost-%d", n)
	return t
}

// HPCG models the High Performance Conjugate Gradient benchmark: per
// iteration a sparse-matrix halo exchange plus two small allreduces
// (dot products) and a compute phase.
func HPCG(n int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	const iters = 30
	for it := 0; it < iters; it++ {
		// Halo exchange (SpMV): re-generate with fresh tags.
		sweep := HaloExchange2D(n, 64*1024, 1, 0)
		shift := tg.phase() * 16
		for r := 0; r < n; r++ {
			for _, op := range sweep.Programs[r] {
				op.MTag += shift
				progs[r] = append(progs[r], op)
			}
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: 3 * netsim.Millisecond})
		}
		// Two dot-product allreduces.
		for d := 0; d < 2; d++ {
			ar := AllreduceRing(n, 64, 1, &tg)
			for r := 0; r < n; r++ {
				progs[r] = append(progs[r], ar.Programs[r]...)
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("HPCG-%d", n), Ranks: n, Programs: progs}
}

// HPL models High Performance Linpack: steps of panel factorisation
// where the panel owner ring-broadcasts a shrinking panel, everyone
// updates (compute proportional to remaining matrix).
func HPL(n int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	const steps = 24
	const panel0 = 2 << 20
	for k := 0; k < steps; k++ {
		root := k % n
		frac := float64(steps-k) / float64(steps)
		bytes := int(float64(panel0) * frac * frac)
		if bytes < 1024 {
			bytes = 1024
		}
		base := tg.phase()
		// Ring broadcast from root: receive from the previous rank,
		// then forward to the next.
		if n > 1 {
			for off := 0; off < n; off++ {
				r := (root + off) % n
				if off > 0 {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: (root + off - 1) % n, MTag: base + off - 1})
				}
				if off < n-1 {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: (root + off + 1) % n, Bytes: bytes, MTag: base + off})
				}
			}
		}
		// Trailing update compute scales with remaining matrix.
		dur := netsim.Time(float64(6*netsim.Millisecond) * frac * frac)
		for r := 0; r < n; r++ {
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: dur})
		}
	}
	return &Trace{Name: fmt.Sprintf("HPL-%d", n), Ranks: n, Programs: progs}
}

// MiniFE models the miniFE finite-element proxy: a CG solve — like
// HPCG but with a heavier halo and three allreduces per iteration.
func MiniFE(n int) *Trace {
	var tg tagger
	progs := make([][]netsim.Op, n)
	const iters = 20
	for it := 0; it < iters; it++ {
		sweep := HaloExchange2D(n, 128*1024, 1, 0)
		shift := tg.phase() * 16
		for r := 0; r < n; r++ {
			for _, op := range sweep.Programs[r] {
				op.MTag += shift
				progs[r] = append(progs[r], op)
			}
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: 4 * netsim.Millisecond})
		}
		for d := 0; d < 3; d++ {
			ar := AllreduceRing(n, 64, 1, &tg)
			for r := 0; r < n; r++ {
				progs[r] = append(progs[r], ar.Programs[r]...)
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("miniFE-%d", n), Ranks: n, Programs: progs}
}

// IMBAlltoall is the Fig. 13 benchmark at Table IV scale.
func IMBAlltoall(n int) *Trace {
	t := Alltoall(n, 128*1024, 12)
	t.Name = fmt.Sprintf("IMB-Alltoall-%d", n)
	return t
}

// ByName builds a named Table IV application for n ranks.
func ByName(name string, n int) (*Trace, error) {
	switch name {
	case "HPCG":
		return HPCG(n), nil
	case "HPL":
		return HPL(n), nil
	case "miniGhost":
		return MiniGhost(n), nil
	case "miniFE":
		return MiniFE(n), nil
	case "IMB":
		return IMBAlltoall(n), nil
	default:
		return nil, fmt.Errorf("workload: unknown application %q (valid: %s)",
			name, strings.Join(TableIVApps(), ", "))
	}
}

// TableIVApps lists the applications of Table IV in paper order.
func TableIVApps() []string { return []string{"HPCG", "HPL", "miniGhost", "miniFE", "IMB"} }
