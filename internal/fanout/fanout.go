// Package fanout runs independent, indexed pieces of work on every core
// and hands their results back in index order, so a parallel loop yields
// exactly what its sequential form does. The degree of parallelism is
// runtime.GOMAXPROCS; there is no other knob.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map returns f(0), ..., f(n-1) in index order. The calls run on up to
// GOMAXPROCS goroutines that take indices from one atomic cursor, and
// each call writes only its own slot, so f must be safe to call
// concurrently and the order in which the calls run must not matter.
// With one core or one index, f runs on the caller's goroutine.
func Map[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}
