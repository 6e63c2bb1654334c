// Package profiling is the thin shared layer behind the -cpuprofile and
// -memprofile flags of the command front-ends. It exists so every
// command stops a CPU profile and snapshots the heap the same way.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// StartCPU begins a CPU profile into path and returns the function that
// stops it and closes the file; calling stop again is a no-op, so a
// command can both defer it and call it before its heap snapshot. With
// path == "" StartCPU is a no-op and the returned stop is safe to call.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return sync.OnceFunc(func() {
		pprof.StopCPUProfile()
		_ = f.Close()
	}), nil
}

// WriteHeap forces a GC (so the profile reflects live objects, not
// garbage awaiting collection) and writes a heap profile to path. With
// path == "" it is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return nil
}
