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

// presize returns n rank programs with room for ops(r) operations
// each. A rank with none stays nil, as appending nothing leaves it.
func presize(n int, ops func(r int) int) [][]netsim.Op {
	progs := make([][]netsim.Op, n)
	for r := range progs {
		if k := ops(r); k > 0 {
			progs[r] = make([]netsim.Op, 0, k)
		}
	}
	return progs
}

// Alltoall is the IMB Alltoall: reps rounds in which every rank sends
// `bytes` to every other rank (the pure-traffic benchmark of Fig. 13).
// Each round, a rank sends to every other rank, then receives from
// each.
func Alltoall(n, bytes, reps int) *Trace {
	var tg tagger
	progs := presize(n, func(int) int { return reps * 2 * (n - 1) })
	for rep := 0; rep < reps; rep++ {
		base := tg.phase()
		for r := range progs {
			for p := 0; p < n; p++ {
				if p != r {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: p, Bytes: bytes, MTag: base + r})
				}
			}
			for p := 0; p < n; p++ {
				if p != r {
					progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: p, MTag: base + p})
				}
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("imb-alltoall-%d", n), Ranks: n, Programs: progs}
}

// allreduceOps is the number of ops one ring allreduce adds to every
// rank's program.
func allreduceOps(n int) int { return 4 * (n - 1) }

// allreduce appends one ring allreduce (reduce-scatter + allgather,
// the collective under HPCG's and miniFE's dot products) of chunk-byte
// steps to every rank's program: 2(n-1) phases, each tagged afresh
// from tg, of a send to the next rank and a receive from the previous
// one.
func allreduce(progs [][]netsim.Op, chunk int, tg *tagger) {
	n := len(progs)
	for phase := 0; phase < 2*(n-1); phase++ {
		base := tg.phase()
		for r := range progs {
			prv := (r - 1 + n) % n
			progs[r] = append(progs[r],
				netsim.Op{Kind: netsim.OpSend, Peer: (r + 1) % n, Bytes: chunk, MTag: base + r},
				netsim.Op{Kind: netsim.OpRecv, Peer: prv, MTag: base + prv},
			)
		}
	}
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

// halo is one rank's neighbours on a non-periodic 2D grid, in send
// order, with the direction toward each: 0 and 1 along x, 2 and 3
// along y. A neighbour's send toward the rank has the mirrored
// direction (dir ^ 1).
type halo struct {
	peer, dir [4]int
	k         int
}

// haloOf returns rank r's neighbours on a px × py grid.
func haloOf(r, px, py int) halo {
	var h halo
	x, y := r%px, r/px
	for dir, c := range [4]struct {
		ok   bool
		peer int
	}{{x > 0, r - 1}, {x < px-1, r + 1}, {y > 0, r - px}, {y < py-1, r + px}} {
		if c.ok {
			h.peer[h.k], h.dir[h.k] = c.peer, dir
			h.k++
		}
	}
	return h
}

// haloOps is the number of ops one halo sweep adds to rank r's program.
func haloOps(r, px, py int, compute netsim.Time) int {
	k := 2 * haloOf(r, px, py).k
	if compute > 0 {
		k++
	}
	return k
}

// haloSweep appends one halo exchange, tagged from base, to every
// rank's program: sends to each neighbour, receives from each, then
// the compute phase if there is one.
func haloSweep(progs [][]netsim.Op, px, py, bytes, base int, compute netsim.Time) {
	for r := range progs {
		h := haloOf(r, px, py)
		for i := range h.k {
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpSend, Peer: h.peer[i], Bytes: bytes, MTag: base + r*8 + h.dir[i]})
		}
		for i := range h.k {
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpRecv, Peer: h.peer[i], MTag: base + h.peer[i]*8 + (h.dir[i] ^ 1)})
		}
		if compute > 0 {
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: compute})
		}
	}
}

// HaloExchange2D is miniGhost's communication skeleton: iters sweeps of
// 2D nearest-neighbour halo exchange (non-periodic) with a compute
// phase per sweep.
func HaloExchange2D(n, haloBytes, iters int, compute netsim.Time) *Trace {
	px, py := grid2D(n)
	var tg tagger
	progs := presize(n, func(r int) int { return iters * haloOps(r, px, py, compute) })
	for it := 0; it < iters; it++ {
		haloSweep(progs, px, py, haloBytes, tg.phase(), compute)
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

// cgSolve is the shape of a conjugate-gradient proxy: per iteration a
// sparse-matrix halo exchange, a compute phase and dot-product
// allreduces of 64 bytes.
func cgSolve(n, iters, haloBytes int, compute netsim.Time, dots int) [][]netsim.Op {
	px, py := grid2D(n)
	var tg tagger
	progs := presize(n, func(r int) int {
		return iters * (haloOps(r, px, py, 0) + 1 + dots*allreduceOps(n))
	})
	for it := 0; it < iters; it++ {
		// The halo exchange takes the tags of a fresh one-sweep trace,
		// shifted clear of every other phase's.
		haloSweep(progs, px, py, haloBytes, 1<<12+tg.phase()*16, 0)
		for r := range progs {
			progs[r] = append(progs[r], netsim.Op{Kind: netsim.OpCompute, Dur: compute})
		}
		for d := 0; d < dots; d++ {
			allreduce(progs, max(64/n, 1), &tg)
		}
	}
	return progs
}

// HPCG models the High Performance Conjugate Gradient benchmark: per
// iteration a sparse-matrix halo exchange plus two small allreduces
// (dot products) and a compute phase.
func HPCG(n int) *Trace {
	return &Trace{Name: fmt.Sprintf("HPCG-%d", n), Ranks: n, Programs: cgSolve(n, 30, 64*1024, 3*netsim.Millisecond, 2)}
}

// HPL models High Performance Linpack: steps of panel factorisation
// where the panel owner ring-broadcasts a shrinking panel, everyone
// updates (compute proportional to remaining matrix).
func HPL(n int) *Trace {
	var tg tagger
	const steps = 24
	const panel0 = 2 << 20
	progs := presize(n, func(int) int { return 3 * steps })
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
	return &Trace{Name: fmt.Sprintf("miniFE-%d", n), Ranks: n, Programs: cgSolve(n, 20, 128*1024, 4*netsim.Millisecond, 3)}
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
