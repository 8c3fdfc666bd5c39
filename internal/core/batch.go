package core

import (
	"repro/internal/par"
	"repro/internal/topology"
)

// ParallelFor runs jobs 0..n-1 across `workers` goroutines, preserving
// nothing about order except that all started jobs complete before it
// returns. workers <= 0 means GOMAXPROCS; workers == 1 (or n < 2) runs
// serially on the calling goroutine. After a job fails, no further
// jobs are claimed; the lowest-index error observed is returned.
//
// Jobs must be independent: the experiment sweeps satisfy this by
// giving every simulation its own Network/engine and priming shared
// read-only structures (topologies, route sets, SDT deployments)
// before the fan-out.
//
// The implementation lives in the leaf package internal/par so the
// routing strategies can reuse the same pool for their per-destination
// route builds without an import cycle.
func ParallelFor(workers, n int, job func(i int) error) error {
	return par.For(workers, n, job)
}

// EnsureDeployed primes the SDT deployment for g, deploying with the
// topology's default routing strategy if absent — the one serial step
// SDT-mode runs need before they can execute concurrently (deploying
// mutates the controller; a live deployment is read-only).
func (tb *Testbed) EnsureDeployed(g *topology.Graph) error {
	_, err := tb.ensureDeployment(g, nil)
	return err
}
