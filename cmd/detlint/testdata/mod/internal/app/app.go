// Package app is the walltime half of the detlint CLI test fixture: its
// one function stamps items with the wall clock and trips walltime and
// nothing else, so CLI tests can prove a -checks subset reports only its
// own findings against the lifecycle defects planted in package fetch.
package app

import "time"

// Item is the per-iteration payload.
type Item struct {
	At time.Time
	ID int
}

// Hot stamps each item with the wall clock.
//
//detlint:hotpath -- fixture entry
func Hot(n int) []*Item {
	var out []*Item
	for i := 0; i < n; i++ {
		out = append(out, &Item{At: time.Now(), ID: i})
	}
	return out
}
