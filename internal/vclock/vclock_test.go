package vclock

import (
	"testing"
	"time"
)

func TestClockBasics(t *testing.T) {
	start := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	c := New(start)
	if !c.Now().Equal(start) {
		t.Fatal("wrong start time")
	}
	c.Advance(5 * time.Second)
	if got := c.Since(start); got != 5*time.Second {
		t.Errorf("Since = %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Since(start); got != 5*time.Second {
		t.Errorf("negative advance moved the clock: %v", got)
	}
}
