package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapCallsEachIndexOnceInOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			calls := make([]atomic.Int32, n)
			out := Map(n, func(i int) int {
				calls[i].Add(1)
				return i * i
			})
			if len(out) != n {
				t.Fatalf("GOMAXPROCS %d, n %d: %d results", procs, n, len(out))
			}
			for i := range out {
				if out[i] != i*i || calls[i].Load() != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: slot %d = %d after %d calls", procs, n, i, out[i], calls[i].Load())
				}
			}
		}
	}
}
