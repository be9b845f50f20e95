// Package parallel provides the tiny bounded fan-out primitive behind the
// partitioned query paths: the VP manager fans a query across its velocity
// partitions and the Store fans a subscription refresh across the standing
// subscriptions, both through Do. Keeping it in one place pins down the concurrency contract —
// bounded workers, deterministic error selection, strict sequential
// degeneration at limit 1 — so the "parallel results must be byte-identical
// to the sequential path" property is enforced by construction at every call
// site rather than re-proved per caller.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs f(0..n-1) on at most limit concurrent workers and waits for all of
// them. limit <= 0 means GOMAXPROCS. With n <= 1 or limit == 1 it degrades
// to a plain sequential loop on the calling goroutine (no goroutines, no
// channel traffic) that stops at the first error — the exact pre-fan-out
// behavior, used as the comparison baseline in tests and benchmarks.
//
// In the parallel case every index is still visited exactly once (workers
// that already started are not cancelled), and the returned error is the one
// from the lowest index that failed, so error selection does not depend on
// goroutine scheduling.
func Do(n, limit int, f func(i int) error) error {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if n <= 1 || limit == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := limit
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
