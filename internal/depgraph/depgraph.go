// Package depgraph derives a page's dependency depths from HAR initiator
// records — the paper's §5.4 method (it tracked which object triggered
// which fetch via the Chrome DevTools requestWillBeSent initiator).
// Each object hangs from the object that triggered it, and its depth is
// the length of that chain back to the root document. The measure pass
// reads only how many objects sit at each depth, so that is all the
// package computes: one parent index per entry, no graph.
package depgraph

import (
	"errors"

	"repro/internal/har"
)

// DepthCounts returns the number of log entries at each depth, with
// depths beyond maxDepth collapsed into the final bucket.
//
// The first entry whose initiator is empty is the root, at depth 0.
// Every other entry hangs from the first entry that fetched its
// initiator's URL, so a URL fetched twice anchors its children at its
// earliest fetch. An entry whose initiator is not in the log, or is the
// entry itself, hangs from the root: the conservative choice a
// measurement tool makes when an initiator is outside the capture. An
// entry whose chain of parents runs into a cycle instead of the root
// counts at depth 1.
func DepthCounts(log *har.Log, maxDepth int) ([]int, error) {
	d, err := depths(log)
	if err != nil {
		return nil, err
	}
	out := make([]int, maxDepth+1)
	for _, x := range d {
		out[min(x, maxDepth)]++
	}
	return out, nil
}

// Depth markers for entries whose depth is not settled yet.
const (
	unknown  = -1 // not reached by any walk
	visiting = -2 // on the current walk's path
	cyclic   = -3 // the parent chain ends in a cycle
)

// depths returns each entry's depth under DepthCounts' rules.
func depths(log *har.Log) ([]int, error) {
	entries := log.Entries
	if len(entries) == 0 {
		return nil, errors.New("depgraph: empty HAR log")
	}
	root := -1
	for i := range entries {
		if entries[i].Initiator == "" {
			root = i
			break
		}
	}
	if root < 0 {
		return nil, errors.New("depgraph: no root entry (every entry has an initiator)")
	}
	first := make(map[string]int, len(entries))
	for i := range entries {
		if _, dup := first[entries[i].Request.URL]; !dup {
			first[entries[i].Request.URL] = i
		}
	}
	parent := make([]int, len(entries))
	depth := make([]int, len(entries))
	for i := range entries {
		p, ok := first[entries[i].Initiator]
		if !ok || p == i {
			p = root
		}
		parent[i], depth[i] = p, unknown
	}
	depth[root] = 0
	for i := range depth {
		// Walk up to the first entry whose depth is settled. A walk that
		// meets its own path has closed a cycle.
		j, steps := i, 0
		for depth[j] == unknown {
			depth[j] = visiting
			j = parent[j]
			steps++
		}
		base := depth[j]
		if base == visiting {
			base = cyclic
		}
		// Settle the path: each entry is one deeper than its parent.
		for k := i; depth[k] == visiting; k = parent[k] {
			if base == cyclic {
				depth[k] = cyclic
			} else {
				depth[k] = base + steps
				steps--
			}
		}
	}
	for i, d := range depth {
		if d == cyclic {
			depth[i] = 1
		}
	}
	return depth, nil
}
