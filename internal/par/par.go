// Package par is the leaf worker-pool primitive shared by the
// experiment sweeps (via core.ForEach) and the routing strategies'
// per-destination route builds. It lives below every domain package so
// that routing can fan out without importing core (which imports
// controller, which imports routing).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs jobs 0..n-1 across `workers` goroutines, preserving nothing
// about order except that all started jobs complete before it returns.
// workers <= 0 means GOMAXPROCS; workers == 1 (or n < 2) runs serially
// on the calling goroutine. After a job fails, no further jobs are
// claimed; the lowest-index error observed is returned.
//
// Jobs must be independent: callers satisfy this by giving every job
// its own output slot and sharing only structures that are safe to
// read concurrently.
func For(workers, n int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   int64 = -1
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		// firstErr keeps the error of the lowest job index so parallel
		// runs fail with the same error a serial run would hit first.
		firstErr    error
		firstErrIdx int
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil || i < firstErrIdx {
						firstErr, firstErrIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
