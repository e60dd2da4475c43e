// Package par holds the analyzer's one bounded fan-out. Every
// per-item loop that runs in parallel (per procedure, per unit, per
// configuration group, per suite program, per batch item) goes
// through For; long-lived goroutines such as the server's worker pool
// are services, not loops, and live with their owners.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns once every call has returned. workers <= 0 means one worker
// per available CPU. With one worker the calls run in index order on
// the caller's goroutine, with no goroutines at all: the sequential
// reference path the determinism tests compare against. Otherwise
// items are handed out in index order through a shared counter, so
// which worker runs an item is up to the scheduler; callers write
// results only to per-index slots, which keeps them independent of it.
func For(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
