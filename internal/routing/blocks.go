package routing

import (
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/topology"
)

// ForEachBlock builds dc's rules toward dsts a block of destinations at
// a time and hands each block's route set to a visitor, which reads it
// and keeps none of it: the caller that walks a few paths toward every
// destination, a flow-level run, holds one block's rules per worker
// instead of ComputeFor's switches × destinations.
//
// dsts are validated and made canonical as ComputeFor does (nil = every
// host), and cut into blocks of shapeBlock destinations, which are
// striped over blockWorkers workers as computeForDsts' block builders
// are. newVisitor is called once per worker, serially and before any
// build, with the number of workers; the visitor it returns is called
// with that worker's blocks, one after another. Each worker builds its
// blocks with ComputeFor's per-destination builder into a route set it
// owns and reuses, rules and lookup index alike, so the route set and
// the block handed to a visitor hold only until that visitor returns.
// placeRuns lays a block's rules out as ComputeFor's set holds them, so
// Lookup and Walk toward the block answer as they do on ComputeFor's
// set.
//
// Errors are ComputeFor's: a validation failure's, or the lowest
// failing destination's. Every block below that destination's is
// visited; the ones above it may not be.
func ForEachBlock(g *topology.Graph, dc DstComputer, dsts []int, newVisitor func(workers int) func(r *Routes, block []int)) error {
	p := dc.plan()
	dsts, build, err := p.prepare(g, dsts)
	if err != nil {
		return err
	}
	blocks := (len(dsts) + shapeBlock - 1) / shapeBlock
	workers := blockWorkers(blocks)
	visit := make([]func(*Routes, []int), workers)
	for w := range visit {
		visit[w] = newVisitor(workers)
	}
	// failed is the lowest block whose build failed, errs[failed] its
	// error; a worker stops at it.
	errs := make([]error, blocks)
	var failed atomic.Int64
	failed.Store(int64(blocks))
	par.For(workers, workers, func(w int) error {
		b := newBlockRoutes(g, p)
		for k := w; int64(k) < failed.Load(); k += workers {
			block := dsts[k*shapeBlock : min((k+1)*shapeBlock, len(dsts))]
			r, err := b.build(block, build)
			if err != nil {
				errs[k] = err
				for f := failed.Load(); int64(k) < f; f = failed.Load() {
					if failed.CompareAndSwap(f, int64(k)) {
						break
					}
				}
				return nil
			}
			visit[w](r, block)
		}
		return nil
	})
	if f := failed.Load(); f < int64(blocks) {
		return errs[f]
	}
	return nil
}

// blockRoutes is one ForEachBlock worker's storage, reused from block
// to block: the block builder, the route set the block's rules are
// placed into, its lookup index and placeRuns' scratch.
type blockRoutes struct {
	b       *blockBuilder
	r       Routes
	idx     routeIndex
	scratch []int
}

func newBlockRoutes(g *topology.Graph, p dstPlan) *blockRoutes {
	nv := len(g.Vertices)
	return &blockRoutes{
		b:       newBlockBuilder(nv, shapeBlock*g.NumSwitches()),
		r:       Routes{Topo: g, Strategy: p.name, NumVCs: p.vcs},
		scratch: make([]int, 2*nv),
	}
}

// build builds the rules toward block into the route set and indexes
// them, and returns the route set, or the block's first failed build's
// error.
func (b *blockRoutes) build(block []int, build func(dst int, emit func(Rule)) error) (*Routes, error) {
	runs, err := b.b.build(block, build)
	if err != nil {
		return nil, err
	}
	r := &b.r
	r.Rules = placeRuns(r.Rules, b.scratch, len(r.Topo.Vertices), runs)
	r.fib.Store(nil)
	b.idx.build(r.Rules, len(r.Topo.Vertices))
	r.idx.Store(&b.idx)
	return r, nil
}
