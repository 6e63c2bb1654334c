// Package vclock provides the deterministic virtual clock used by the
// network simulator and the page-load engine.
//
// Virtual time only advances when a component explicitly advances its
// Clock, so experiments are perfectly reproducible and run orders of
// magnitude faster than wall time.
package vclock

import (
	"sync"
	"time"
)

// Clock is a virtual clock. The zero value starts at the Unix epoch.
// Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// New returns a Clock starting at the given time.
func New(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative durations are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Wall returns the current real wall-clock time. It is the single
// sanctioned wall-clock accessor in the tree: operational telemetry
// (worker utilization, run-duration banners) may consult it, measurement
// code must not — detlint's walltime check forbids direct time.Now use
// everywhere outside this package, so every real-time read is findable
// under one name.
func Wall() time.Time { return time.Now() }

// WallSince returns the real time elapsed since t, which should be a
// previous Wall() reading. Like Wall, it exists so operational code
// never touches the time package directly.
func WallSince(t time.Time) time.Duration { return time.Since(t) }
