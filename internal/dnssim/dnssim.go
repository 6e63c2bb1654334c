// Package dnssim simulates the DNS substrate: authoritative records with
// CNAME chains (used for CDN attribution), and caching recursive
// resolvers with TTL expiry, background warming, and — for public anycast
// resolvers — cache fragmentation across backend shards.
//
// It reproduces the paper's §5.3 experiment: issuing two consecutive
// queries per domain to a local resolver and to a fragmented public
// resolver, labelling the first a cache hit when its response time is not
// significantly higher than the second's, and observing roughly 30% and
// 20% hit rates respectively for the most popular domains. Low hit rates
// stem from short time-to-live values used for CDN request routing and
// from cache fragmentation at large public resolvers.
package dnssim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/detrand"
)

// ErrInjected marks a transient injected resolver failure (the simulated
// analogue of a SERVFAIL or a lost resolver datagram). Callers distinguish
// it from NXDOMAIN with errors.Is: injected failures are transient and
// worth retrying, NXDOMAIN is authoritative.
var ErrInjected = errors.New("injected resolver failure")

// Record is one authoritative DNS mapping. Chain holds the CNAME chain
// traversed before the terminal A record (empty for directly hosted
// names).
type Record struct {
	Host  string
	Chain []string // CNAME chain, in order
	Addr  string   // terminal IPv4 address
	TTL   time.Duration
}

// Authority supplies authoritative records. Implemented by the synthetic
// web's domain registry.
type Authority interface {
	// Lookup returns the record for host. ok is false for NXDOMAIN.
	Lookup(host string) (Record, bool)
}

// AuthorityFunc adapts a function to the Authority interface.
type AuthorityFunc func(host string) (Record, bool)

// Lookup implements Authority.
func (f AuthorityFunc) Lookup(host string) (Record, bool) { return f(host) }

// SyntheticAuthority answers every name deterministically: hosts whose
// name carries a CNAME marker get a chain, everything else a plain A
// record. Useful in tests and as a fallback.
type SyntheticAuthority struct {
	// DefaultTTL applies when no rule matches. Zero means 1 hour.
	DefaultTTL time.Duration
}

// Lookup implements Authority.
func (a *SyntheticAuthority) Lookup(host string) (Record, bool) {
	ttl := a.DefaultTTL
	if ttl == 0 {
		ttl = time.Hour
	}
	return Record{Host: host, Addr: SyntheticAddr(host), TTL: ttl}, true
}

// octet holds the decimal rendering of every byte value, so hot-path
// address construction below is a single concatenation (one allocation
// for the returned string, nothing else).
var octet = func() (t [256]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return
}()

// SyntheticAddr derives a stable fake IPv4 address from a hostname.
func SyntheticAddr(host string) string {
	h := fnv.New32a()
	h.Write([]byte(host))
	v := h.Sum32()
	// Stay in the TEST-NET-3 and documentation ranges, then widen; these
	// addresses never leave the simulation. This runs once per cold
	// resolution on the load path, hence the table lookups instead of
	// format verbs.
	return "198." + octet[18+(v>>16)%32] + "." + octet[(v>>8)&255] + "." + octet[v&255]
}

// Result is the outcome of one resolution.
type Result struct {
	Record  Record
	Latency time.Duration
	// CacheHit reports whether the resolver answered from cache without
	// contacting upstream servers.
	CacheHit bool
}

// ResolverConfig parameterizes a caching resolver.
type ResolverConfig struct {
	Name string
	Seed int64
	// ClientRTT is the round-trip from the client to the resolver
	// (e.g. ~3ms for the ISP resolver, ~20ms for a public anycast one).
	ClientRTT time.Duration
	// UpstreamTime is the mean additional time to resolve a cache miss
	// recursively.
	UpstreamTime time.Duration
	// Shards is the number of independent backend caches; public anycast
	// resolvers fragment their cache across many frontends. 0 or 1 means
	// a single shared cache.
	Shards int
	// WarmQueryRate scales the background query stream from other users
	// that keeps popular names warm. A name with popularity p (0..1] and
	// TTL T has first-query hit probability r·T/(1+r·T) with
	// r = WarmQueryRate·p / Shards — the steady-state hit rate of a TTL
	// cache under Poisson arrivals.
	WarmQueryRate float64
	// FailProb is the probability that a query which must go upstream
	// fails transiently (SERVFAIL / lost datagram). Cached answers never
	// fail, and failures are never cached, so retries can succeed. Fault
	// draws use a dedicated RNG: FailProb = 0 leaves the latency stream
	// untouched.
	FailProb float64
}

// Resolver is a caching recursive resolver. Safe for concurrent use.
type Resolver struct {
	cfg   ResolverConfig
	auth  Authority
	now   func() time.Time
	mu    sync.Mutex
	rng   *rand.Rand
	frng  *rand.Rand              // fault draws only; nil when FailProb == 0
	cache []map[string]cacheEntry // one map per shard
}

type cacheEntry struct {
	rec     Record
	expires time.Time
}

// NewResolver builds a resolver over the given authority. now supplies
// virtual time; if nil, a fixed epoch clock is used (cache entries then
// never expire, which is fine for single-page-load scopes).
func NewResolver(cfg ResolverConfig, auth Authority, now func() time.Time) *Resolver {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ClientRTT <= 0 {
		cfg.ClientRTT = 3 * time.Millisecond
	}
	if cfg.UpstreamTime <= 0 {
		cfg.UpstreamTime = 80 * time.Millisecond
	}
	if now == nil {
		epoch := time.Unix(0, 0).UTC()
		now = func() time.Time { return epoch }
	}
	caches := make([]map[string]cacheEntry, cfg.Shards)
	for i := range caches {
		caches[i] = make(map[string]cacheEntry)
	}
	r := &Resolver{
		cfg:   cfg,
		auth:  auth,
		now:   now,
		rng:   detrand.New(cfg.Seed ^ 0x5d15),
		cache: caches,
	}
	if cfg.FailProb > 0 {
		r.frng = detrand.New(cfg.Seed ^ 0xfa11)
	}
	return r
}

// Name returns the resolver's configured name.
func (r *Resolver) Name() string { return r.cfg.Name }

// Resolve resolves host. popularity (0..1] is the name's global request
// popularity, which drives background cache warmth; pass 0 for
// unpopular/unknown names.
func (r *Resolver) Resolve(host string, popularity float64) (Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	now := r.now()
	shard := 0
	if r.cfg.Shards > 1 {
		// Anycast: one client consistently reaches one frontend, but the
		// overall cache is fragmented across frontends — each shard only
		// sees 1/Shards of the global query stream. Shard selection is
		// stable per name so that consecutive probe queries exercise the
		// same cache, as they would from a fixed vantage point.
		h := fnv.New32a()
		h.Write([]byte(host))
		shard = int(h.Sum32()) % r.cfg.Shards
		if shard < 0 {
			shard += r.cfg.Shards
		}
	}
	jitter := func(d time.Duration) time.Duration {
		return d + time.Duration(r.rng.NormFloat64()*float64(d)*0.15)
	}

	if e, ok := r.cache[shard][host]; ok && e.expires.After(now) {
		return Result{Record: e.rec, Latency: jitter(r.cfg.ClientRTT), CacheHit: true}, nil
	}

	// Injected transient failure: the upstream exchange dies. The client
	// burns a few upstream timeouts before giving up; nothing is cached,
	// so a retry redraws its fate.
	if r.frng != nil && r.frng.Float64() < r.cfg.FailProb {
		lat := r.cfg.ClientRTT + 4*r.cfg.UpstreamTime
		lat += time.Duration(r.frng.NormFloat64() * float64(lat) * 0.15)
		return Result{Latency: lat}, fmt.Errorf("dnssim: %s: %w", host, ErrInjected)
	}

	rec, ok := r.auth.Lookup(host)
	if !ok {
		return Result{Latency: jitter(r.cfg.ClientRTT + r.cfg.UpstreamTime)}, fmt.Errorf("dnssim: NXDOMAIN %s", host)
	}

	// Was the name already warm from background traffic? Sampled once,
	// when we first see the name on this shard.
	if popularity > 0 && r.cfg.WarmQueryRate > 0 {
		rate := r.cfg.WarmQueryRate * popularity / float64(r.cfg.Shards)
		rt := rate * rec.TTL.Seconds()
		pWarm := rt / (1 + rt)
		if r.rng.Float64() < pWarm {
			// Warm: residual TTL is uniform over the TTL window.
			residual := time.Duration(r.rng.Float64() * float64(rec.TTL))
			r.cache[shard][host] = cacheEntry{rec: rec, expires: now.Add(residual)}
			return Result{Record: rec, Latency: jitter(r.cfg.ClientRTT), CacheHit: true}, nil
		}
	}

	// Miss: recurse upstream, then cache.
	lat := jitter(r.cfg.ClientRTT + r.cfg.UpstreamTime)
	r.cache[shard][host] = cacheEntry{rec: rec, expires: now.Add(rec.TTL)}
	return Result{Record: rec, Latency: lat, CacheHit: false}, nil
}

// Flush drops all cached entries.
func (r *Resolver) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.cache {
		r.cache[i] = make(map[string]cacheEntry)
	}
}

// HitRateProbe issues two consecutive queries for each host and labels the
// first query a cache hit when its latency is within threshold of the
// second's — the paper's measurement method (§5.3). It returns the
// fraction of hosts whose first query was labelled a hit.
func HitRateProbe(r *Resolver, hosts []string, popularity func(host string) float64, threshold time.Duration) float64 {
	if len(hosts) == 0 {
		return 0
	}
	if threshold <= 0 {
		threshold = 20 * time.Millisecond
	}
	hits := 0
	for _, h := range hosts {
		pop := 0.0
		if popularity != nil {
			pop = popularity(h)
		}
		first, err1 := r.Resolve(h, pop)
		second, err2 := r.Resolve(h, pop)
		if err1 != nil || err2 != nil {
			continue
		}
		if first.Latency-second.Latency < threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(hosts))
}

// ZipfPopularity returns a popularity function assigning rank-ordered
// hosts a 1/rank^s popularity normalized to (0,1].
func ZipfPopularity(ranked []string, s float64) func(string) float64 {
	if s <= 0 {
		s = 0.9
	}
	m := make(map[string]float64, len(ranked))
	for i, h := range ranked {
		m[h] = math.Pow(float64(i+1), -s)
	}
	return func(h string) float64 { return m[h] }
}
