// Package deferhot exercises the defer-in-loop check on hot paths.
package deferhot

import "os"

// Entry processes many files per request — the hot context.
//
//detlint:hotpath -- fixture entry
func Entry(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close() // want `defer inside a loop on a hot path runs at function return, not per iteration; hoist it or release explicitly; hot path: deferhot\.Entry`
		use(f)
	}
	nested(len(paths))
	return nil
}

// nested piles defers up quadratically; both loop levels report the
// same site once. Entry calls it, but an entry point is its own chain.
//
//detlint:hotpath -- fixture entry
func nested(n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			defer release(i, j) // want `defer inside a loop on a hot path.*; hot path: deferhot\.nested$`
		}
	}
}

// perIteration wraps the body in a closure: the defer runs every
// iteration, which is the fix — no finding.
//
//detlint:hotpath -- fixture entry
func perIteration(paths []string) error {
	for _, p := range paths {
		if err := func() error {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			defer f.Close()
			use(f)
			return nil
		}(); err != nil {
			return err
		}
	}
	return nil
}

// cold has the same shape but is not reachable from any hot entry.
func cold(paths []string) {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		defer f.Close()
		use(f)
	}
}

// topLevel defers outside any loop: fine even on a hot path.
//
//detlint:hotpath -- fixture entry
func topLevel(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	use(f)
	return nil
}

// allowed documents a justified loop defer.
//
//detlint:hotpath -- fixture entry
func allowed(paths []string) {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		defer f.Close() //detlint:allow deferhot -- bounded fan-in, at most 3 paths
		use(f)
	}
}

func release(i, j int) {}

func use(f *os.File) {}
