// Package cdn simulates content delivery networks: a roster of providers
// with detection signatures (domain patterns, CNAME suffixes, response
// headers), and edge caches whose hit probability is driven by object
// popularity — the mechanism behind the paper's observation that landing
// pages, whose objects are requested more often, enjoy ~16% more CDN
// cache hits than internal pages and therefore lower wait times (§5.1,
// §5.6).
//
// Edges combine a real LRU cache (exercised by repeated requests within a
// run) with a steady-state warmth model that decides whether an object
// was already cached by other users' traffic when we first request it.
package cdn

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/detrand"
)

// Provider describes one CDN with the externally observable signatures
// that the detection heuristics (internal/cdndetect) key on.
type Provider struct {
	Name         string
	HostSuffix   string // objects served from hosts ending in this suffix
	CNAMESuffix  string // first-party hosts CNAME to names with this suffix
	ServerHeader string // value of the Server response header
	ViaHeader    string // value of the Via response header ("1.1 " + Name)
	XCache       bool   // emits X-Cache: HIT/MISS headers
}

// rosterNames names the simulated CDN roster: ~40 providers, echoing the
// "more than 40 different CDNs" the paper identified in H1K fetches.
var rosterNames = [...]string{
	"fastcache", "cloudmesh", "edgenova", "swiftlayer", "hypercast",
	"meshfront", "rapidedge", "cachegrid", "flowcdn", "stackpoint",
	"bluedelivery", "netsprint", "omnicache", "pulseedge", "quickserve",
	"turbofront", "velocitynet", "warpcache", "zephyrcdn", "apexedge",
	"brightmesh", "coreflux", "deltacast", "evercache", "fluxpoint",
	"gigaedge", "horizoncdn", "instantwire", "jetstreamcdn", "kineticnet",
	"lumencast", "megafront", "nimbusedge", "orbitcache", "primecast",
	"quantumcdn", "rocketlayer", "streamvault", "titanedge", "ultramesh",
}

// roster is the provider list, built once for the whole program.
var roster = func() []Provider {
	ps := make([]Provider, len(rosterNames))
	for i, n := range rosterNames {
		ps[i] = Provider{
			Name:         n,
			HostSuffix:   "." + n + ".net",
			CNAMESuffix:  "." + n + "-edge.net",
			ServerHeader: n,
			ViaHeader:    "1.1 " + n,
			XCache:       i%5 != 4, // most, but not all, expose X-Cache
		}
	}
	return ps
}()

// rosterIndex maps a provider name to its roster position, which also
// fixes the seed of that provider's edge in every Network.
var rosterIndex = func() map[string]int {
	m := make(map[string]int, len(rosterNames))
	for i, n := range rosterNames {
		m[n] = i
	}
	return m
}()

// Providers returns the simulated CDN roster. The slice is a fresh copy
// the caller may keep or modify.
func Providers() []Provider {
	return append([]Provider(nil), roster...)
}

// WarmthFunc maps an object's global request popularity (0..1] to the
// steady-state probability that a nearby edge already caches it.
type WarmthFunc func(popularity float64) float64

// PopularityWarmth returns the standard warmth curve
// p = (rate·pop)/(1+rate·pop) · ceiling — a TTL-cache hit rate under
// Poisson arrivals, saturating at ceiling.
func PopularityWarmth(rate, ceiling float64) WarmthFunc {
	if ceiling <= 0 || ceiling > 1 {
		ceiling = 0.98
	}
	return func(pop float64) float64 {
		if pop <= 0 {
			return 0
		}
		x := rate * pop
		return ceiling * x / (1 + x)
	}
}

// ServeResult describes how an edge answered one request.
type ServeResult struct {
	Hit bool
	// Think is the edge's processing time before first byte, excluding
	// any backhaul (the caller adds backhaul on a miss).
	Think time.Duration
}

// Edge is one CDN edge cache serving the vantage point's region.
// Safe for concurrent use.
type Edge struct {
	Provider Provider

	mu      sync.Mutex
	rng     *rand.Rand
	warmth  WarmthFunc
	cap     int
	entries map[string]int32 // key -> index into nodes
	nodes   []entry          // the LRU list's storage
	head    int32            // most recent node, or none
	tail    int32
	hits    int
	misses  int
}

// none marks an absent LRU link.
const none = -1

// entry is one cached key, linked into the LRU list by node index.
type entry struct {
	key        string
	prev, next int32
}

// NewEdge creates an edge for provider with an LRU of capacity objects
// and the given warmth model (nil means cold-only: no background warmth).
func NewEdge(p Provider, capacity int, warmth WarmthFunc, seed int64) *Edge {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Edge{
		Provider: p,
		rng:      detrand.New(seed ^ int64(len(p.Name))),
		warmth:   warmth,
		cap:      capacity,
		entries:  make(map[string]int32),
		head:     none,
		tail:     none,
	}
}

// reset re-seeds the edge as NewEdge seeds a new one and empties it,
// keeping its map and node storage.
func (e *Edge) reset(seed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rng.Seed(seed ^ int64(len(e.Provider.Name)))
	e.empty()
}

// empty drops every cached key and the hit counts. e.mu must be held.
func (e *Edge) empty() {
	if len(e.nodes) > 0 {
		clear(e.entries)
		clear(e.nodes)
		e.nodes = e.nodes[:0]
	}
	e.head, e.tail = none, none
	e.hits, e.misses = 0, 0
}

// Serve handles a request for the object identified by key with the given
// popularity. On the first request of a key the warmth model decides
// whether background traffic had already cached it; afterwards the real
// LRU state decides.
func (e *Edge) Serve(key string, popularity float64) ServeResult {
	e.mu.Lock()
	defer e.mu.Unlock()

	think := time.Duration(3+e.rng.Intn(8)) * time.Millisecond
	if i, ok := e.entries[key]; ok {
		e.moveToFront(i)
		e.hits++
		return ServeResult{Hit: true, Think: think}
	}
	hit := false
	if e.warmth != nil && e.rng.Float64() < e.warmth(popularity) {
		hit = true
	}
	e.insert(key)
	if hit {
		e.hits++
	} else {
		e.misses++
		// Back-office work: cache-hierarchy lookups and connection
		// management before the backhaul fetch even starts (§5.6).
		think += time.Duration(10+e.rng.Intn(22)) * time.Millisecond
	}
	return ServeResult{Hit: hit, Think: think}
}

// Stats returns cumulative hit and miss counts.
func (e *Edge) Stats() (hits, misses int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// Len returns the number of cached objects.
func (e *Edge) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.entries)
}

func (e *Edge) moveToFront(i int32) {
	if e.head == i {
		return
	}
	en := &e.nodes[i]
	// unlink
	if en.prev != none {
		e.nodes[en.prev].next = en.next
	}
	if en.next != none {
		e.nodes[en.next].prev = en.prev
	}
	if e.tail == i {
		e.tail = en.prev
	}
	e.pushFront(i)
}

// pushFront links unlinked node i in as the most recent.
func (e *Edge) pushFront(i int32) {
	en := &e.nodes[i]
	en.prev = none
	en.next = e.head
	if e.head != none {
		e.nodes[e.head].prev = i
	}
	e.head = i
	if e.tail == none {
		e.tail = i
	}
}

// insert caches key as the most recent entry, evicting the least recent
// one when the edge is full; the new key takes the victim's node.
func (e *Edge) insert(key string) {
	var i int32
	if len(e.entries) >= e.cap && e.tail != none {
		i = e.tail
		victim := &e.nodes[i]
		e.tail = victim.prev
		if e.tail != none {
			e.nodes[e.tail].next = none
		} else {
			e.head = none
		}
		delete(e.entries, victim.key)
	} else {
		if e.entries == nil {
			e.entries = make(map[string]int32)
		}
		e.nodes = append(e.nodes, entry{})
		i = int32(len(e.nodes) - 1)
	}
	e.nodes[i].key = key
	e.entries[key] = i
	e.pushFront(i)
}

// XCacheHeader returns the X-Cache header value for a result, or "" if
// the provider does not emit one.
func (e *Edge) XCacheHeader(r ServeResult) string {
	if !e.Provider.XCache {
		return ""
	}
	if r.Hit {
		return "HIT"
	}
	return "MISS"
}

// Network is a set of edges, one per provider, sharing a warmth model.
// An edge is built on the first Edge call for its provider, with the seed
// its roster position gives it, so a page load seeds only the edges it
// touches. Safe for concurrent use.
type Network struct {
	capacity int
	warmth   WarmthFunc
	seed     int64

	mu    sync.Mutex
	edges [len(rosterNames)]*Edge
	// current marks the edges handed out since the last Reset; any other
	// built edge is empty and is re-seeded on its next use.
	current [len(rosterNames)]bool
}

// NewNetwork returns a network over all providers; no edge exists yet.
func NewNetwork(capacityPerEdge int, warmth WarmthFunc, seed int64) *Network {
	return &Network{capacity: capacityPerEdge, warmth: warmth, seed: seed}
}

// Edge returns the edge for the named provider, building it on first use.
func (n *Network) Edge(provider string) (*Edge, error) {
	i, ok := rosterIndex[provider]
	if !ok {
		return nil, fmt.Errorf("cdn: unknown provider %q", provider)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	seed := n.seed + int64(i)*7919
	switch {
	case n.edges[i] == nil:
		n.edges[i] = NewEdge(roster[i], n.capacity, n.warmth, seed)
	case !n.current[i]:
		n.edges[i].reset(seed)
	}
	n.current[i] = true
	return n.edges[i], nil
}

// Reset makes n serve as NewNetwork would build it with seed, keeping
// the capacity and warmth model and the edges' storage: every edge is
// emptied at once, and re-seeded exactly as NewEdge seeds a new one on
// its next Edge call. Edges handed out before Reset are reused, so their
// callers must be done with them.
func (n *Network) Reset(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seed = seed
	for i, e := range n.edges {
		if e == nil {
			continue
		}
		e.mu.Lock()
		switch {
		case n.current[i]:
			e.empty()
		case cap(e.nodes) > maxKeptKeys:
			// Idle for a whole load: a big edge's storage goes, so a
			// network reset for every load of a study holds what its
			// recent loads used, not what its largest ever did.
			e.entries, e.nodes = nil, nil
		}
		e.mu.Unlock()
	}
	n.current = [len(rosterNames)]bool{}
}

// maxKeptKeys bounds the storage an edge keeps through a load that does
// not use it: the keys a typical page load sends a third-party CDN's
// edge. A site's own CDN edge, used by every load of the site, keeps
// its storage until the loads move on to another site.
const maxKeptKeys = 32

// Stats aggregates hits and misses across the edges built so far; an
// untouched provider has served nothing.
func (n *Network) Stats() (hits, misses int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.edges {
		if e == nil {
			continue
		}
		h, m := e.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}
