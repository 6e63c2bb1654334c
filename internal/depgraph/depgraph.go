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

// Counter counts a log's entries at each dependency depth, on index
// storage it keeps from one log to the next, so a caller that counts
// many logs allocates little more than the results. The zero value is
// ready to use. A Counter is not safe for concurrent use.
type Counter struct {
	buf []int
}

// maxKeptInts bounds the storage a Counter keeps after a count: room for
// a log of about 500 entries. A bigger log's storage is dropped once it
// is counted.
const maxKeptInts = 4096

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
func (c *Counter) DepthCounts(log *har.Log, maxDepth int) ([]int, error) {
	d, err := c.depths(log)
	if err != nil {
		return nil, err
	}
	out := make([]int, maxDepth+1)
	for _, x := range d {
		out[min(x, maxDepth)]++
	}
	if cap(c.buf) > maxKeptInts {
		c.buf = nil
	}
	return out, nil
}

// Depth markers for entries whose depth is not settled yet.
const (
	unknown  = -1 // not reached by any walk
	visiting = -2 // on the current walk's path
	cyclic   = -3 // the parent chain ends in a cycle
)

// depths returns each entry's depth under DepthCounts' rules, in c's
// storage until c's next call. One buffer, grown only for a bigger log,
// holds the parent and depth of every entry and an open-addressing index
// from URL to first fetch.
func (c *Counter) depths(log *har.Log) ([]int, error) {
	entries := log.Entries
	n := len(entries)
	if n == 0 {
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
	size := 2 // a power of two, at least twice the entries: short probes
	for size < 2*n {
		size <<= 1
	}
	if need := 2*n + size; cap(c.buf) < need {
		c.buf = make([]int, need)
	} else {
		c.buf = c.buf[:need]
		clear(c.buf)
	}
	buf := c.buf
	parent, depth := buf[:n:n], buf[n:2*n:2*n]
	idx := urlIndex{entries: entries, slots: buf[2*n:], mask: uint64(size - 1)}
	for i := range entries {
		idx.add(i)
	}
	for i := range entries {
		p := idx.first(entries[i].Initiator)
		if p < 0 || p == i {
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

// urlIndex maps a request URL to the first entry that fetched it: an
// open-addressing hash table whose slots hold entry index + 1, 0 when
// empty, probed linearly.
type urlIndex struct {
	entries []har.Entry
	slots   []int
	mask    uint64
}

// add indexes entry i's URL unless an earlier entry fetched it.
func (x *urlIndex) add(i int) {
	u := x.entries[i].Request.URL
	for k := hashURL(u) & x.mask; ; k = (k + 1) & x.mask {
		j := x.slots[k]
		if j == 0 {
			x.slots[k] = i + 1
			return
		}
		if x.entries[j-1].Request.URL == u {
			return
		}
	}
}

// first returns the index of the first entry that fetched u, or -1.
func (x *urlIndex) first(u string) int {
	for k := hashURL(u) & x.mask; ; k = (k + 1) & x.mask {
		j := x.slots[k]
		if j == 0 {
			return -1
		}
		if x.entries[j-1].Request.URL == u {
			return j - 1
		}
	}
}

// hashURL is FNV-1a over u's bytes.
func hashURL(u string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(u); i++ {
		h ^= uint64(u[i])
		h *= 1099511628211
	}
	return h
}
