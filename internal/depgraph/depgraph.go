// Package depgraph builds web-page dependency graphs from HAR initiator
// records — the paper's §5.4 method (it tracked which object triggered
// which fetch via the Chrome DevTools requestWillBeSent initiator and
// built the graph from those edges). Nodes are objects; a directed edge
// runs from an object to each fetch it triggered; an object's depth is
// the shortest path from the root document.
package depgraph

import (
	"fmt"
	"time"

	"repro/internal/har"
)

// Node is one object in the graph.
type Node struct {
	URL       string
	Initiator string // "" for the root document
	Parent    int    // node index, -1 for the root
	Children  []int
	Depth     int // shortest-path depth from the root (root = 0)
	Size      int64
	Start     time.Duration // offset from navigationStart
	End       time.Duration
}

// Graph is a page's dependency graph.
type Graph struct {
	Nodes []Node
	byURL map[string]int
}

// FromHAR builds the graph of one page load. The first entry whose
// initiator is empty is the root; entries whose initiator URL is unknown
// attach to the root (the conservative choice a measurement tool makes
// when an initiator is outside the capture).
func FromHAR(log *har.Log) (*Graph, error) {
	if len(log.Entries) == 0 {
		return nil, fmt.Errorf("depgraph: empty HAR log")
	}
	g := &Graph{byURL: make(map[string]int, len(log.Entries))}
	nav := log.Page.NavigationStart
	for i := range log.Entries {
		e := &log.Entries[i]
		start := e.StartedAt.Sub(nav)
		g.Nodes = append(g.Nodes, Node{
			URL:       e.Request.URL,
			Initiator: e.Initiator,
			Parent:    -1,
			Depth:     -1,
			Size:      e.Response.BodySize,
			Start:     start,
			End:       start + e.Time,
		})
		// First occurrence wins: a URL fetched twice keeps its earliest
		// node as the dependency anchor.
		if _, dup := g.byURL[e.Request.URL]; !dup {
			g.byURL[e.Request.URL] = i
		}
	}
	root := -1
	for i := range g.Nodes {
		if g.Nodes[i].Initiator == "" {
			root = i
			break
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("depgraph: no root entry (every entry has an initiator)")
	}
	// Wire edges.
	for i := range g.Nodes {
		if i == root {
			continue
		}
		p, ok := g.byURL[g.Nodes[i].Initiator]
		if !ok || p == i {
			p = root
		}
		g.Nodes[i].Parent = p
		g.Nodes[p].Children = append(g.Nodes[p].Children, i)
	}
	// BFS for shortest-path depths.
	g.Nodes[root].Depth = 0
	queue := []int{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range g.Nodes[n].Children {
			if g.Nodes[c].Depth == -1 {
				g.Nodes[c].Depth = g.Nodes[n].Depth + 1
				queue = append(queue, c)
			}
		}
	}
	// Orphans in a cycle (cannot happen with first-occurrence anchoring,
	// but be safe): attach at depth 1.
	for i := range g.Nodes {
		if g.Nodes[i].Depth == -1 {
			g.Nodes[i].Depth = 1
		}
	}
	return g, nil
}

// DepthCounts returns the number of objects at each depth, with depths
// beyond max collapsed into the final bucket.
func (g *Graph) DepthCounts(max int) []int {
	out := make([]int, max+1)
	for i := range g.Nodes {
		d := g.Nodes[i].Depth
		if d > max {
			d = max
		}
		out[d]++
	}
	return out
}

// MaxDepth returns the deepest object's depth.
func (g *Graph) MaxDepth() int {
	m := 0
	for i := range g.Nodes {
		if g.Nodes[i].Depth > m {
			m = g.Nodes[i].Depth
		}
	}
	return m
}

// CriticalPath returns the dependency chain ending at the last-finishing
// object, walking initiator edges back to the root, plus that object's
// completion time. Delivery optimizations in the Polaris/Vroom family
// attack exactly this chain.
func (g *Graph) CriticalPath() ([]int, time.Duration) {
	last, end := 0, time.Duration(0)
	for i := range g.Nodes {
		if g.Nodes[i].End > end {
			last, end = i, g.Nodes[i].End
		}
	}
	var path []int
	for n := last; n != -1; n = g.Nodes[n].Parent {
		path = append(path, n)
		if len(path) > len(g.Nodes) {
			break // defensive: malformed parent loop
		}
	}
	// Reverse to root-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, end
}
