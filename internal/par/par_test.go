package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// goid returns the calling goroutine's ID, parsed from the
// "goroutine N [running]:" header of its stack trace.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestFor covers the worker resolution and the pool across worker
// counts: every index runs exactly once, never more than the resolved
// pool (workers, or one per CPU for workers <= 0, and never more than
// n) at a time, and a pool of one runs the items in order on the
// caller's goroutine.
func TestFor(t *testing.T) {
	caller := goid()
	for _, workers := range []int{-4, 0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 7, 100} {
			pool := workers
			if pool <= 0 {
				pool = runtime.GOMAXPROCS(0)
			}
			pool = min(pool, n)
			var (
				mu             sync.Mutex
				visits         = make([]int, n)
				order          []int
				inFlight, peak int
				offCaller      bool
			)
			For(workers, n, func(i int) {
				mu.Lock()
				visits[i]++
				order = append(order, i)
				inFlight++
				peak = max(peak, inFlight)
				mu.Unlock()
				onCaller := goid() == caller
				mu.Lock()
				inFlight--
				offCaller = offCaller || !onCaller
				mu.Unlock()
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, v)
				}
			}
			if peak > pool {
				t.Errorf("workers=%d n=%d: %d calls in flight, pool is %d", workers, n, peak, pool)
			}
			if pool == 1 {
				if offCaller {
					t.Errorf("workers=%d n=%d: a pool of one left the caller's goroutine", workers, n)
				}
				for k, i := range order {
					if i != k {
						t.Fatalf("workers=%d n=%d: a pool of one ran out of order: %v", workers, n, order)
					}
				}
			}
		}
	}
}
