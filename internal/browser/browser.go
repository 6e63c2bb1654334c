// Package browser is the measurement study's page-load engine: the
// substitute for the automated Firefox the paper drove. Given a generated
// page model it simulates a cold-cache load in virtual time — DNS
// lookups through a caching resolver, per-origin connection pools with
// TCP/TLS handshakes, dependency-ordered parallel object fetches, CDN
// edge cache interaction, resource-hint handling — and emits the same
// artifacts the paper collected: a HAR log with full timing phases,
// Navigation Timing marks (navigationStart → firstPaint = PLT), a Speed
// Index, and an initiator-based dependency graph.
package browser

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/httpsem"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/urlx"
	"repro/internal/webgen"
)

// Config parameterizes a Browser.
type Config struct {
	Seed int64
	// Resolver is the shared caching DNS resolver (persists across page
	// loads, like the ISP resolver the paper's vantage point used).
	Resolver *dnssim.Resolver
	// CDNFactory returns the CDN edge state used for one page load. The
	// harness passes a fresh popularity-warmed network per load: the
	// paper's fetches were spread over days and vantage-local edge churn
	// makes cross-fetch LRU correlation negligible, while the
	// steady-state warmth (what the X-Cache analysis observes) persists.
	CDNFactory func() *cdn.Network
	// Net configures the transport timing model.
	Net simnet.Config
	// Protocol selects optional transport/delivery optimizations for
	// counterfactual ("what-if") evaluation (§5.6's QUIC/TLS 1.3/Server
	// Push discussion). The zero value is the paper-era baseline:
	// HTTP/1.1 over TCP with the site's negotiated TLS version.
	Protocol Protocol
	// Cache, when non-nil, is the browser's private HTTP cache. It
	// persists across Load calls: cold loads warm it, and LoadRevisit
	// serves fresh copies from it or revalidates stale ones with
	// conditional requests. nil (the default) keeps the historical
	// always-cold behavior, byte for byte.
	Cache *Cache
	// Trace, when non-nil, receives load/exchange/phase spans for every
	// load (see internal/trace). Spans carry virtual time only; nil (the
	// default) costs a single pointer check per load.
	Trace *trace.Recorder
}

// Protocol toggles the §5.6 optimizations under study.
type Protocol struct {
	// ForceTLS13 makes every HTTPS handshake 1-RTT regardless of the
	// site's negotiated version.
	ForceTLS13 bool
	// QUIC combines transport and crypto setup into a single round trip
	// (connect = 1 RTT, no separate TLS exchange).
	QUIC bool
	// H2Multiplex models HTTP/2: one connection per origin carrying
	// concurrent streams — no per-request connection queueing.
	H2Multiplex bool
	// ServerPush delivers an object's children starting when the parent
	// starts (the server knows the dependency graph — the Polaris/Vroom
	// family of optimizations, §5.4).
	ServerPush bool
	// PreconnectAll warms a connection to every origin at navigation
	// start, as if the markup carried perfect preconnect hints (§5.5).
	PreconnectAll bool
}

const (
	// maxConnsPerOrigin and maxConns bound connection parallelism at 6
	// per origin and 256 in all. Firefox-era global caps are in the
	// hundreds, so the per-origin limit binds in practice.
	maxConnsPerOrigin = 6
	maxConns          = 256
	// parseDelay is the root document's parse cost before its
	// sub-resources are discovered.
	parseDelay = 8 * time.Millisecond
)

// Browser loads pages. Not safe for concurrent use.
type Browser struct {
	cfg     Config
	scratch loadScratch
}

// loadScratch holds the per-Browser buffers the load path reuses across
// loads: rebuilding them per load (five maps, six per-object slices, two
// ~5 KB RNG states inside the simnet model, the task heap) dominated the
// load path's allocation churn. Browser is documented not safe for
// concurrent use, so one scratch set per Browser is safe. Everything
// here is reset at the top of LoadRevisit and nothing in it escapes a
// load, except the HAR storage: the returned log owns its entry array
// and header slab until the caller hands it back with Release, and only
// then do lent and free let a later load reuse them. Reset keeps all of
// it for the browser's next configuration.
type loadScratch struct {
	net *simnet.Model
	// pools maps the current load's origins to their connection pools;
	// live lists those pools in creation order and spare holds the pools
	// of earlier loads, emptied, for the next new origins. The map never
	// holds an origin past its load.
	pools     map[string]*pool
	live      []*pool
	spare     []*pool
	dnsDone   map[string]time.Duration
	dnsCost   map[string]time.Duration
	origins   map[string]bool
	originRTT map[string]time.Duration
	done      []time.Duration
	starts    []time.Duration
	fetched   []bool
	attempted []bool
	failed    []bool
	tasks     taskHeap
	events    byAt
	state     loadState

	// dates holds the Date header values of this browser's loads.
	dates dateArena

	// kidFirst and kids hold the load's children index (childIndex).
	kidFirst []int32
	kids     []int32

	// originOrder lists originRTT's keys in the order the page first
	// references them.
	originOrder []string

	// lent records the storage of the most recent maxLent unreleased
	// logs, so Release can recognise them; free holds released storage
	// for the next loads. A load takes at most one store from free and
	// lends one, and Release moves one back, so together they never hold
	// more than maxLent stores.
	lent []logStore
	free []logStore
	// releasing records that the caller hands logs back.
	releasing bool
}

// maxLent is how many unreleased logs Release still recognises, the
// most recent ones: two, so a caller can hold a cold/warm pair and
// release both. An older log's storage is left to the garbage collector.
const maxLent = 2

// maxKeptEntries bounds the entry array Reset keeps for the next
// configuration: room for a typical page. A bigger store serves the
// loads until Reset and is then left to the garbage collector, so a
// browser reused for a whole study holds a typical page's storage
// between sites, not its largest page's.
const maxKeptEntries = 256

// maxRespHeaders bounds the headers one entry carries: 3 base +
// Location + Cache-Control + two validators + three CDN headers.
const maxRespHeaders = 10

// respHeaderSlots bounds the headers fetch gives o's response, at most
// maxRespHeaders: Content-Type, Server, Date and Cache-Control, plus
// Location on a redirect, the two validators on a cacheable object and
// X-Cache, Via and Age on a CDN-served one. A header slab holds this
// many slots for each object of the page.
func respHeaderSlots(o *webgen.Object) int {
	n := 4
	if o.Role == webgen.RoleRedirect {
		n++
	}
	if o.Cacheable {
		n += 2
	}
	if o.ViaCDN != "" {
		n += 3
	}
	return n
}

// logStore is the storage behind one returned log: its entry array and
// the slab its entries' own headers were cut from, up to the last header
// the load used (nil when the load had no slab and allocated each header
// list separately).
type logStore struct {
	log     *har.Log
	entries []har.Entry
	slab    []har.Header
}

// storage returns zeroed entries for an n-object load and a zeroed
// header slab of at least slots headers to cut its header lists from.
// For a caller that has never released a log it keeps the exact sizing
// of a log nobody will hand back: a fresh n-entry array and no slab.
// Released storage, zeroed by Release, is reused, and grown with
// headroom (storeCap) when a bigger page needs more; with none free, a
// releasing caller gets new storage sized the same way.
func (sc *loadScratch) storage(n, slots int) ([]har.Entry, []har.Header) {
	var st logStore
	if k := len(sc.free) - 1; k >= 0 {
		st = sc.free[k]
		sc.free[k] = logStore{}
		sc.free = sc.free[:k]
	} else if !sc.releasing {
		return make([]har.Entry, n), nil
	}
	entries := st.entries
	if cap(entries) < n {
		entries = make([]har.Entry, n, storeCap(n))
	} else {
		entries = entries[:n]
	}
	slab := st.slab
	if cap(slab) < slots {
		slab = make([]har.Header, slots+slots/4)
	}
	return entries, slab[:cap(slab)]
}

// storeCap is the capacity of an entry array grown for an n-object
// page: a quarter's headroom, so pages a little bigger reuse it, but
// never past maxKeptEntries for a page that fits, so Reset keeps the
// array instead of dropping it and regrowing it for the next site.
func storeCap(n int) int {
	c := n + n/4
	if n <= maxKeptEntries && c > maxKeptEntries {
		c = maxKeptEntries
	}
	return c
}

// lend records log, built on slab, as released-able, forgetting the
// oldest recorded log once maxLent are outstanding.
func (sc *loadScratch) lend(log *har.Log, slab []har.Header) {
	if len(sc.lent) == maxLent {
		copy(sc.lent, sc.lent[1:])
		sc.lent[maxLent-1] = logStore{}
		sc.lent = sc.lent[:maxLent-1]
	}
	sc.lent = append(sc.lent, logStore{log: log, entries: log.Entries, slab: slab})
}

// Release hands back a log this browser returned, so a later load can
// reuse its entry array and header storage. The caller must not touch
// the log, its entries or their headers afterwards; Release empties
// log.Entries so a stray read finds nothing. Releasing is optional: a
// log that is never released stays valid for good. Release of nil, of a
// log another browser returned, of a log already released or of one
// older than the browser's maxLent most recent unreleased logs is a
// no-op.
func (b *Browser) Release(log *har.Log) {
	sc := &b.scratch
	for i, st := range sc.lent {
		if log == nil || st.log != log {
			continue
		}
		last := len(sc.lent) - 1
		copy(sc.lent[i:], sc.lent[i+1:])
		sc.lent[last] = logStore{}
		sc.lent = sc.lent[:last]
		log.Entries = nil
		sc.releasing = true
		st.log = nil
		// Zeroed now, so neither a slot the next load leaves unwritten
		// nor a store waiting in free keeps this page's strings
		// reachable.
		clear(st.entries[:cap(st.entries)])
		clear(st.slab)
		st.entries = st.entries[:0]
		st.slab = st.slab[:cap(st.slab)]
		sc.free = append(sc.free, st)
		return
	}
}

// zeroed returns s re-zeroed to length n, growing only when needed.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// childIndex indexes objs by parent on the scratch storage: the
// children of object p are kids[first[p]:first[p+1]], in ascending
// index order, the order a scan of objs finds them in. A parent outside
// objs has no entry.
func (sc *loadScratch) childIndex(objs []*webgen.Object) (first, kids []int32) {
	n := len(objs)
	// Count p's children at first[p+2]; the running sum then leaves
	// p's start at first[p+1], which the fill advances to p's end, that
	// is p+1's start.
	first = zeroed(sc.kidFirst, n+2)
	kids = zeroed(sc.kids, n)
	for _, o := range objs {
		if p := o.Parent; p >= 0 && p < n {
			first[p+2]++
		}
	}
	for i := 2; i < len(first); i++ {
		first[i] += first[i-1]
	}
	for ci, o := range objs {
		if p := o.Parent; p >= 0 && p < n {
			kids[first[p+1]] = int32(ci)
			first[p+1]++
		}
	}
	sc.kidFirst, sc.kids = first, kids
	return first, kids
}

// New creates a Browser.
func New(cfg Config) (*Browser, error) {
	b := &Browser{}
	if err := b.Reset(cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset gives b the configuration New(cfg) would, so a caller that moves
// on to another site can keep the browser's storage: released log
// storage, connection pool objects, per-load slices and the load
// model, which every load re-seeds. Nothing else carries over: the
// cache, resolver, CDN factory, seed and trace are cfg's. Logs returned
// before Reset stay valid, and Release no longer recognises them.
func (b *Browser) Reset(cfg Config) error {
	if cfg.Resolver == nil {
		return fmt.Errorf("browser: Config.Resolver is required")
	}
	if cfg.CDNFactory == nil {
		return fmt.Errorf("browser: Config.CDNFactory is required")
	}
	b.cfg = cfg
	sc := &b.scratch
	clear(sc.lent)
	sc.lent = sc.lent[:0]
	kept := sc.free[:0]
	for _, st := range sc.free {
		if cap(st.entries) <= maxKeptEntries {
			kept = append(kept, st)
		}
	}
	clear(sc.free[len(kept):])
	sc.free = kept
	return nil
}

// SetCache installs (or, with nil, removes) the private HTTP cache used
// by subsequent loads. The study's warm runner installs its worker's
// cache, emptied by Cache.Reset, for each cold/warm load pair.
func (b *Browser) SetCache(c *Cache) { b.cfg.Cache = c }

// conn is one transport connection in a per-origin pool.
type conn struct {
	freeAt time.Duration // offset from navigationStart
}

type pool struct {
	conns []*conn
}

// open adds a connection that is free at freeAt. Past the slice's end
// the pool keeps the conns of earlier loads and closed connections,
// each distinct from the live ones, and open reuses one of them before
// allocating.
func (p *pool) open(freeAt time.Duration) *conn {
	n := len(p.conns)
	if n < cap(p.conns) {
		if c := p.conns[:n+1][n]; c != nil {
			c.freeAt = freeAt
			p.conns = p.conns[:n+1]
			return c
		}
	}
	c := &conn{freeAt: freeAt}
	p.conns = append(p.conns, c)
	return c
}

// fetchTask is an object ready (or about to be ready) to fetch.
type fetchTask struct {
	idx     int
	readyAt time.Duration
	seq     int
}

// taskHeap is a binary min-heap ordered by (readyAt, seq). The heap
// operations are implemented directly rather than through
// container/heap: the interface adapter boxes every fetchTask, and the
// event loop pushes one per object per load. seq makes the order a
// strict total order, so the pop sequence is exactly sorted and
// independent of internal heap layout.
type taskHeap []fetchTask

func (h taskHeap) less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].seq < h[j].seq
}

func (h *taskHeap) push(t fetchTask) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *taskHeap) pop() fetchTask {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	t := s[n]
	*h = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return t
}

// LoadRevisit performs one page load of the model. fetchID
// differentiates repeated fetches of the same page (the paper loads each
// landing page ten times and uses medians); it seeds the per-load jitter.
// Higher attempts reseed the per-load network conditions (jitter and
// fault draws), so a retry of a transiently failed load can succeed —
// the study runner's retry loop depends on this. For a warm
// (repeat-view) load, navigation starts revisit after the fetchID's base
// slot, so responses stored by the matching cold load have aged exactly
// revisit (minus their in-load completion offsets) when the cache checks
// freshness. Attempt 0 with revisit 0 is the cold load of fetchID.
//
// On failure the returned error is a *LoadError wrapping ErrTimeout,
// ErrDNS, or ErrTruncated, and the returned log is non-nil: it holds the
// entries recorded up to and including the fatal fetch (the aborted root
// entry records the phase reached), for forensics. Its page timings are
// zero and it must not be measured as a successful load.
//
// The returned log (failed or not) stays valid until it is passed to
// Release, which lets the browser reuse its storage for a later load; a
// log that is never released stays valid for good.
//
//detlint:hotpath -- the per-site load loop; every study load, cold, warm or retried, funnels through here
func (b *Browser) LoadRevisit(m *webgen.PageModel, fetchID, attempt int, revisit time.Duration) (*har.Log, error) {
	if len(m.Objects) == 0 {
		return nil, fmt.Errorf("browser: page model %s has no objects", m.URL)
	}
	site := m.Page.Site
	sc := &b.scratch
	netCfg := simnet.Config{
		// revisit folds in so warm loads see different network weather
		// than their cold counterpart; revisit 0 reproduces the
		// historical stream exactly.
		Seed:          b.cfg.Seed ^ int64(fetchID)*0x9e37 ^ int64(len(m.URL)) ^ int64(attempt)*0x1000193 ^ int64(revisit/time.Second)*0x85ebca6b,
		ConnBandwidth: b.cfg.Net.ConnBandwidth,
		JitterFrac:    b.cfg.Net.JitterFrac,
		Faults:        b.cfg.Net.Faults,
	}
	if sc.net == nil {
		sc.net = simnet.New(netCfg)
	} else {
		// Reset reseeds in place: byte-identical draw streams to a fresh
		// Model, without re-allocating the generator states.
		sc.net.Reset(netCfg)
	}
	net := sc.net
	edges := b.cfg.CDNFactory()

	navStart := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC).Add(time.Duration(fetchID)*time.Hour + revisit)
	log := &har.Log{Page: har.Page{
		ID:              m.URL + "#" + strconv.Itoa(fetchID),
		URL:             m.URL,
		NavigationStart: navStart,
	}}

	if sc.pools == nil {
		sc.pools = make(map[string]*pool, 8)
		sc.dnsDone = make(map[string]time.Duration, 16)
		sc.dnsCost = make(map[string]time.Duration, 16)
		sc.origins = make(map[string]bool, 8)
		sc.originRTT = make(map[string]time.Duration, 8)
	} else {
		// Pool objects outlive the load so their conns are reused. An
		// emptied pool behaves exactly like a new one.
		for i, p := range sc.live {
			p.conns = p.conns[:0]
			sc.spare = append(sc.spare, p)
			sc.live[i] = nil
		}
		sc.live = sc.live[:0]
		clear(sc.pools)
		clear(sc.dnsDone)
		clear(sc.dnsCost)
		clear(sc.origins)
		clear(sc.originRTT)
	}
	n := len(m.Objects)
	slots := 0
	for _, o := range m.Objects {
		slots += respHeaderSlots(o)
	}
	entries, slab := sc.storage(n, slots)
	sc.done = zeroed(sc.done, n)
	sc.starts = zeroed(sc.starts, n)
	sc.fetched = zeroed(sc.fetched, n)
	sc.attempted = zeroed(sc.attempted, n)
	sc.failed = zeroed(sc.failed, n)

	state := &sc.state
	*state = loadState{
		b:         b,
		m:         m,
		net:       net,
		edges:     edges,
		pools:     sc.pools,
		dnsDone:   sc.dnsDone,
		dnsCost:   sc.dnsCost,
		origins:   sc.origins,
		originRTT: sc.originRTT,
		entries:   entries,
		slab:      slab,
		done:      sc.done,
		starts:    sc.starts,
		fetched:   sc.fetched,
		attempted: sc.attempted,
		failed:    sc.failed,
		tls13:     site.Profile.TLS13 || b.cfg.Protocol.ForceTLS13,
		origLoc:   site.Origin,
		navStart:  navStart,
		cache:     b.cfg.Cache,
	}
	// Pre-compute a representative RTT per origin so hints (preconnect)
	// pay the true handshake cost of the origin they warm.
	clear(sc.originOrder)
	sc.originOrder = sc.originOrder[:0]
	for _, o := range m.Objects {
		key := o.Origin()
		if _, ok := state.originRTT[key]; !ok {
			state.originRTT[key] = state.rttFor(o)
			sc.originOrder = append(sc.originOrder, key)
		}
	}
	if b.cfg.Protocol.PreconnectAll {
		// Warm origins in the order the page first references them: the
		// connection caps and the draw order depend on it, so map order
		// would make the load nondeterministic.
		for _, origin := range sc.originOrder {
			state.preconnect(origin, 0)
		}
	}

	// Fetch the root document. A failed root is fatal: there is no page
	// without it. The partial log (just the aborted root entry) rides
	// along with the typed error.
	rootDone, rootOK := state.fetch(0, 0)
	if !rootOK {
		phase := state.entries[0].Aborted
		b.recordTrace(state, fetchID, attempt, revisit, 0, phase)
		log.Entries = state.compactEntries()
		sc.lend(log, slab[:state.slabUsed])
		return log, &LoadError{URL: m.URL, Phase: phase, Attempt: attempt, Err: sentinelForPhase(phase)}
	}
	discovery := rootDone + parseDelay

	tasks := &sc.tasks
	*tasks = (*tasks)[:0]
	seq := 0
	push := func(idx int, at time.Duration) {
		seq++
		tasks.push(fetchTask{idx: idx, readyAt: at, seq: seq})
	}

	// Resource hints act right after the document's head arrives:
	// dns-prefetch and preconnect warm origins; preload/prefetch start
	// deep fetches early (§5.5).
	for _, h := range m.Hints {
		switch h.Type {
		case "dns-prefetch":
			state.prefetchDNS(h.Target, rootDone)
		case "preconnect":
			state.preconnect(h.Target, rootDone)
		case "preload", "prefetch":
			if h.ObjectIndex > 0 {
				state.fetched[h.ObjectIndex] = true
				push(h.ObjectIndex, discovery)
			}
		}
	}
	// The root's direct children are discovered as the document parses
	// (for §6.1 redirect pages the root's only child is the real
	// document, which then reveals everything else).
	first, kids := sc.childIndex(m.Objects)
	for _, ci := range kids[first[0]:first[1]] {
		if i := int(ci); i != 0 && !state.fetched[i] {
			state.fetched[i] = true
			push(i, discovery+time.Duration(i)*200*time.Microsecond)
		}
	}

	// Event loop: fetch in ready order; completions reveal children —
	// or, with server push, children start as soon as the parent does.
	// A failed sub-resource is tolerated (real browsers render pages with
	// dead vendors), but its children are never discovered.
	for len(*tasks) > 0 {
		t := tasks.pop()
		doneAt, ok := state.fetch(t.idx, t.readyAt)
		if !ok {
			continue
		}
		childAt := doneAt + state.procDelay(m.Objects[t.idx].Role)
		if b.cfg.Protocol.ServerPush {
			childAt = state.starts[t.idx] + 2*time.Millisecond
		}
		for _, ci := range kids[first[t.idx]:first[t.idx+1]] {
			if !state.fetched[ci] {
				state.fetched[ci] = true
				push(int(ci), childAt)
			}
		}
	}

	// Any orphan (parent never fetched — cannot happen by construction,
	// but be defensive) is fetched at the end, unless its parent died or
	// was itself never discovered: descendants of dead fetches, however
	// deep, stay undiscovered.
	for i, o := range m.Objects {
		if state.fetched[i] || i == 0 {
			continue
		}
		if o.Parent >= 0 && (state.failed[o.Parent] || !state.attempted[o.Parent]) {
			continue
		}
		state.fetch(i, discovery)
	}

	log.Page.Timings = state.pageTimings(rootDone)
	b.recordTrace(state, fetchID, attempt, revisit, log.Page.Timings.OnLoad, "")
	log.Entries = state.compactEntries()
	sc.lend(log, slab[:state.slabUsed])
	return log, nil
}

// loadState carries one page load's evolving state.
type loadState struct {
	b         *Browser
	m         *webgen.PageModel
	net       *simnet.Model
	edges     *cdn.Network
	pools     map[string]*pool
	dnsDone   map[string]time.Duration // host -> when resolution completes
	dnsCost   map[string]time.Duration // host -> latency paid by first lookup
	origins   map[string]bool
	originRTT map[string]time.Duration
	entries   []har.Entry
	slab      []har.Header // recycled header storage; nil = allocate per entry
	slabUsed  int
	done      []time.Duration
	starts    []time.Duration
	fetched   []bool
	attempted []bool // a fetch ran (successfully or not) and has an entry
	failed    []bool // the fetch ran and died; children stay undiscovered
	anyFault  bool
	tls13     bool
	origLoc   simnet.Loc
	navStart  time.Time
	nConns    int
	cache     *Cache // nil = cold load

	// dateSec and dateVal memoize the Date header of the last whole
	// second formatted in this load.
	dateSec int64
	dateVal string
}

// headers returns a header list of length n and capacity limit: a
// window of the load's slab when it has room, else a fresh slice. The
// window's capacity is capped with a full slice expression, so an
// append past limit reallocates instead of overwriting the next entry's
// headers.
func (s *loadState) headers(n, limit int) []har.Header {
	if k := s.slabUsed; k+limit <= len(s.slab) {
		s.slabUsed = k + limit
		return s.slab[k : k+n : k+limit]
	}
	return make([]har.Header, n, limit)
}

// date returns the Date header value for t, formatting each whole
// second once per load: HTTP dates have one-second resolution, and most
// of a page's responses share a handful of seconds.
func (s *loadState) date(t time.Time) string {
	if sec := t.Unix(); sec != s.dateSec || s.dateVal == "" {
		s.dateSec, s.dateVal = sec, s.b.scratch.dates.format(t)
	}
	return s.dateVal
}

// dateArena cuts HTTP dates from one strings.Builder's buffer, so the
// dates of many loads share one allocation. Bytes once written are never
// rewritten: a full chunk is replaced, not reused, so a released log's
// headers and the headers a cache keeps never change underneath them. A
// kept date keeps its whole chunk alive, so chunks stay small.
type dateArena struct {
	sb strings.Builder
}

// dateChunk is the size of an arena chunk: about 140 dates.
const dateChunk = 4 << 10

// format returns httpsem.FormatDate(t), cut from the arena.
func (a *dateArena) format(t time.Time) string {
	var buf [29]byte // an IMF-fixdate
	d := httpsem.AppendDate(buf[:0], t)
	if a.sb.Cap()-a.sb.Len() < len(d) {
		a.sb = strings.Builder{}
		a.sb.Grow(max(len(d), dateChunk))
	}
	start := a.sb.Len()
	a.sb.Write(d)
	return a.sb.String()[start:]
}

// rttFor returns the connection RTT for an object's serving host.
func (s *loadState) rttFor(o *webgen.Object) time.Duration {
	if o.ViaCDN != "" {
		return s.net.RTT(simnet.LocEdge)
	}
	if o.ThirdParty {
		// Third-party infrastructure is mostly US-hosted.
		h := 0
		for i := 0; i < len(o.Host); i++ {
			h = h*31 + int(o.Host[i])
		}
		switch h % 10 {
		case 0, 1:
			return s.net.RTT(simnet.LocEurope)
		case 2:
			return s.net.RTT(simnet.LocAsia)
		case 3, 4, 5:
			return s.net.RTT(simnet.LocUSWest)
		default:
			return s.net.RTT(simnet.LocUSEast)
		}
	}
	return s.net.RTT(s.origLoc)
}

// procDelay is the time between an object finishing and its children
// being requested.
func (s *loadState) procDelay(r webgen.Role) time.Duration {
	switch r {
	case webgen.RoleCSS:
		return 3 * time.Millisecond
	case webgen.RoleJS, webgen.RoleAdJS:
		return 12 * time.Millisecond
	case webgen.RoleIframe, webgen.RoleDoc:
		return 6 * time.Millisecond
	default:
		return 2 * time.Millisecond
	}
}

// resolve performs a page-scoped DNS lookup: the first lookup of a host
// pays the resolver latency; later lookups are served from the browser's
// in-page cache. An authoritative NXDOMAIN is absorbed as a fixed-cost
// miss (the legacy tolerance for dead vendor domains), but a transient
// injected resolver failure is surfaced: the fetch that triggered it must
// abort, and the failure is not cached so a later lookup can succeed.
func (s *loadState) resolve(host string, pop float64, at time.Duration) (ready time.Duration, cost time.Duration, err error) {
	if doneAt, ok := s.dnsDone[host]; ok {
		if doneAt > at {
			// Resolution in flight (e.g. dns-prefetch racing a fetch).
			return doneAt, 0, nil
		}
		return at, 0, nil
	}
	res, rerr := s.b.cfg.Resolver.Resolve(host, pop)
	lat := res.Latency
	if rerr != nil {
		if errors.Is(rerr, dnssim.ErrInjected) {
			return at + lat, lat, rerr
		}
		lat = 150 * time.Millisecond
	}
	s.dnsDone[host] = at + lat
	s.dnsCost[host] = lat
	return at + lat, lat, nil
}

// prefetchDNS implements the dns-prefetch hint. Hint failures are
// silent, as in real browsers.
func (s *loadState) prefetchDNS(origin string, at time.Duration) {
	host := urlx.Host(origin)
	if host == "" {
		return
	}
	s.resolve(host, 0.5, at)
}

// preconnect implements the preconnect hint: resolve plus open a warm
// connection.
func (s *loadState) preconnect(origin string, at time.Duration) {
	host := urlx.Host(origin)
	if host == "" {
		return
	}
	ready, _, err := s.resolve(host, 0.5, at)
	if err != nil {
		return
	}
	p := s.pool(origin)
	if len(p.conns) >= maxConnsPerOrigin || s.nConns >= maxConns {
		return
	}
	rtt, ok := s.originRTT[origin]
	if !ok {
		rtt = s.net.RTT(simnet.LocEdge)
	}
	hs := s.net.ConnectTime(rtt)
	if hasTLS(origin) {
		hs += s.net.TLSTime(rtt, s.tls13)
	}
	p.open(ready + hs)
	s.nConns++
}

// pool returns origin's connection pool, taking a spare pool for an
// origin the load has not used yet.
func (s *loadState) pool(origin string) *pool {
	p := s.pools[origin]
	if p != nil {
		return p
	}
	sc := &s.b.scratch
	if k := len(sc.spare) - 1; k >= 0 {
		p = sc.spare[k]
		sc.spare[k] = nil
		sc.spare = sc.spare[:k]
	} else {
		p = &pool{}
	}
	s.pools[origin] = p
	sc.live = append(sc.live, p)
	return p
}

func hasTLS(origin string) bool { return len(origin) >= 6 && origin[:6] == "https:" }

// fetch simulates the full fetch of object idx, ready at readyAt, and
// returns its completion time plus whether it completed. A false return
// means the fetch died (injected DNS failure, timeout, or truncation);
// its HAR entry is still recorded, carrying the phase reached.
func (s *loadState) fetch(idx int, readyAt time.Duration) (time.Duration, bool) {
	o := s.m.Objects[idx]

	// Warm path: a fresh cached copy is served with no network activity
	// at all; a stale one downgrades this fetch to a conditional
	// request that revalidates it.
	var reval *cacheEntry
	if s.cache != nil {
		switch ent, st := s.cache.lookup(o.URL, s.navStart.Add(readyAt)); st {
		case cacheFresh:
			return s.serveFromCache(idx, readyAt, ent), true
		case cacheStale:
			reval = ent
		}
	}

	origin := o.Origin()
	s.origins[origin] = true
	rtt := s.rttFor(o)

	// DNS.
	dnsPop := o.Popularity
	if o.ThirdParty {
		if dnsPop *= 5; dnsPop > 1 {
			dnsPop = 1
		}
	}
	dnsReady, dnsCost, dnsErr := s.resolve(o.Host, dnsPop, readyAt)
	timings := har.Timings{DNS: har.NotApplicable, Connect: har.NotApplicable, SSL: har.NotApplicable}
	if dnsCost > 0 {
		timings.DNS = dnsCost
	}
	if dnsErr != nil {
		s.abort(idx, readyAt, dnsReady, timings, "dns", 0, 0)
		return dnsReady, false
	}

	// Terminal fault for this request, decided up front so the draw count
	// per request is constant (one when injection is enabled, zero
	// otherwise) and runs stay deterministic.
	fault := s.net.DrawFault(origin)

	// Connection acquisition.
	p := s.pool(origin)
	h2 := s.b.cfg.Protocol.H2Multiplex
	handshake := func() (connect, tls time.Duration) {
		if s.b.cfg.Protocol.QUIC {
			// Transport and crypto setup share a single round trip.
			return s.net.ConnectTime(rtt), 0
		}
		connect = s.net.ConnectTime(rtt)
		if o.Scheme == "https" {
			tls = s.net.TLSTime(rtt, s.tls13)
		}
		return connect, tls
	}

	var start time.Duration
	var chosen *conn
	if h2 {
		// One multiplexed connection per origin; streams never queue on
		// each other (per-stream bandwidth contention is folded into the
		// per-connection bandwidth model).
		if len(p.conns) == 0 {
			connectCost, tlsCost := handshake()
			chosen = p.open(dnsReady + connectCost + tlsCost)
			s.nConns++
			timings.Connect = connectCost
			if tlsCost > 0 {
				timings.SSL = tlsCost
			}
		} else {
			chosen = p.conns[0]
		}
		start = maxDur(dnsReady, chosen.freeAt)
	} else {
		// HTTP/1.1: pick the earliest-available established connection or
		// open a new one if that is faster and the budget allows.
		for _, c := range p.conns {
			if chosen == nil || c.freeAt < chosen.freeAt {
				chosen = c
			}
		}
		newAllowed := len(p.conns) < maxConnsPerOrigin && s.nConns < maxConns
		if chosen == nil {
			// An origin with no pooled connection must open one regardless
			// of the global budget (the browser would otherwise queue;
			// opening is the closer model and keeps handshake accounting
			// honest).
			newAllowed = true
		}
		reuseStart := time.Duration(1<<62 - 1)
		if chosen != nil {
			reuseStart = maxDur(dnsReady, chosen.freeAt)
		}
		if newAllowed {
			connectCost, tlsCost := handshake()
			newStart := dnsReady + connectCost + tlsCost
			if newStart < reuseStart {
				chosen = p.open(0)
				s.nConns++
				timings.Connect = connectCost
				if tlsCost > 0 {
					timings.SSL = tlsCost
				}
				start = newStart
			} else {
				start = reuseStart
			}
		} else {
			start = reuseStart
		}
	}
	timings.Blocked = start - readyAt - dur0(timings.DNS) - dur0(timings.Connect) - dur0(timings.SSL)
	if timings.Blocked < 0 {
		timings.Blocked = 0
	}

	// Request/response.
	timings.Send = s.net.SendTime()

	// Injected timeout: the request goes out, nothing ever comes back,
	// and the client abandons the request (and the now-poisoned
	// connection) after the fault timeout.
	if fault == simnet.FaultTimeout {
		timings.Wait = s.net.FaultTimeout()
		doneAt := start + timings.Send + timings.Wait
		s.starts[idx] = start
		s.closeConn(origin, chosen)
		s.abort(idx, readyAt, doneAt, timings, "wait", 0, 0)
		return doneAt, false
	}

	// Conditional revalidation of a stale cached copy: If-None-Match /
	// If-Modified-Since over a normal connection. Generated objects are
	// immutable within a study, so a revalidation that completes always
	// answers 304: validator-check time at the server, then header-only
	// transfer, and the stored copy is served and freshened (RFC 7234
	// §4.3.4). An injected truncation kills the exchange like any other
	// transfer fault — and the cache keeps the stale entry untouched,
	// ready for the next attempt.
	if reval != nil {
		timings.Wait = s.net.WaitTime(rtt, s.net.StaticThink(), 0)
		if extra := s.net.RetransmitDelay(origin, rtt); extra > 0 {
			timings.Wait += extra
		}
		timings.Receive = s.net.ReceiveTime(revalHeaderBytes, rtt)
		if fault == simnet.FaultTruncated {
			timings.Receive = time.Duration(float64(timings.Receive) * s.net.TruncateFrac())
			doneAt := start + timings.Send + timings.Wait + timings.Receive
			s.starts[idx] = start
			s.closeConn(origin, chosen)
			s.abort(idx, readyAt, doneAt, timings, "receive", 0, 0)
			return doneAt, false
		}
		doneAt := start + timings.Send + timings.Wait + timings.Receive
		if !h2 {
			chosen.freeAt = doneAt
		}
		s.done[idx] = doneAt
		s.starts[idx] = start
		s.attempted[idx] = true
		s.cache.freshen(o.URL, s.navStart.Add(doneAt))

		// Stays nil when the entry has no validators, so the marshalled
		// HAR is byte-identical to the pre-preallocation output.
		var reqHeaders []har.Header
		if reval.fresh.ETag != "" || reval.fresh.LastModified != "" {
			reqHeaders = s.headers(0, 2)
		}
		if reval.fresh.ETag != "" {
			reqHeaders = append(reqHeaders, har.Header{Name: "If-None-Match", Value: reval.fresh.ETag})
		}
		if reval.fresh.LastModified != "" {
			reqHeaders = append(reqHeaders, har.Header{Name: "If-Modified-Since", Value: reval.fresh.LastModified})
		}
		initiator := ""
		if o.Parent >= 0 {
			initiator = s.m.Objects[o.Parent].URL
		}
		s.entries[idx] = har.Entry{
			StartedAt: s.navStart.Add(readyAt),
			Time:      doneAt - readyAt,
			Request:   har.Request{Method: "GET", URL: o.URL, Headers: reqHeaders},
			Response: har.Response{
				Status:       reval.status,
				Headers:      reval.headers,
				MIMEType:     reval.mime,
				BodySize:     reval.size,
				TransferSize: revalHeaderBytes,
			},
			Timings:     timings,
			Initiator:   initiator,
			Depth:       o.Depth,
			Revalidated: true,
		}
		return doneAt, true
	}

	think, backhaul, xcache, server, via, edgeHit := s.serverSide(o)
	timings.Wait = s.net.WaitTime(rtt, think, backhaul)
	if extra := s.net.RetransmitDelay(origin, rtt); extra > 0 {
		// Packet loss: one retransmission timeout folded into the wait.
		timings.Wait += extra
	}
	timings.Receive = s.net.ReceiveTime(o.Size, rtt)

	// Injected truncation: the transfer dies partway through the body.
	// The response started (headers and a body prefix arrived), so the
	// entry keeps status 200 with the partial size.
	if fault == simnet.FaultTruncated {
		frac := s.net.TruncateFrac()
		timings.Receive = time.Duration(float64(timings.Receive) * frac)
		doneAt := start + timings.Send + timings.Wait + timings.Receive
		s.starts[idx] = start
		s.closeConn(origin, chosen)
		s.abort(idx, readyAt, doneAt, timings, "receive", 200, int64(float64(o.Size)*frac))
		return doneAt, false
	}

	doneAt := start + timings.Send + timings.Wait + timings.Receive
	if !h2 {
		chosen.freeAt = doneAt // HTTP/1.1: the connection is busy until the body lands
	}
	s.done[idx] = doneAt
	s.starts[idx] = start
	s.attempted[idx] = true

	status := 200
	if o.Role == webgen.RoleBeacon && idx%3 == 0 {
		status = 204
	}
	// Room for the worst case up front, so appends never regrow.
	headers := s.headers(3, respHeaderSlots(o))
	headers[0] = har.Header{Name: "Content-Type", Value: o.MIME}
	headers[1] = har.Header{Name: "Server", Value: server}
	headers[2] = har.Header{Name: "Date", Value: s.date(s.navStart.Add(start + timings.Send + timings.Wait))}
	if o.Role == webgen.RoleRedirect && idx+1 < len(s.m.Objects) {
		status = 301
		headers = append(headers, har.Header{Name: "Location", Value: s.m.Objects[idx+1].URL})
	}
	if cc := o.CacheControl(idx); cc != "" {
		headers = append(headers, har.Header{Name: "Cache-Control", Value: cc})
	}
	if o.Cacheable {
		// Validators ride on cacheable responses only: dynamic answers
		// never match, so a revisit refetches them in full.
		if o.ETag != "" {
			headers = append(headers, har.Header{Name: "ETag", Value: o.ETag})
		}
		if o.LastModified != "" {
			headers = append(headers, har.Header{Name: "Last-Modified", Value: o.LastModified})
		}
	}
	if xcache != "" {
		headers = append(headers, har.Header{Name: "X-Cache", Value: xcache})
		headers = append(headers, har.Header{Name: "Via", Value: via})
		if edgeHit && o.EdgeAgeSecs > 0 {
			// The edge copy has already aged; downstream caches must
			// count that against its freshness lifetime.
			headers = append(headers, har.Header{Name: "Age", Value: strconv.Itoa(o.EdgeAgeSecs)})
		}
	}

	initiator := ""
	if o.Parent >= 0 {
		initiator = s.m.Objects[o.Parent].URL
	}
	s.entries[idx] = har.Entry{
		StartedAt: s.navStart.Add(readyAt),
		Time:      doneAt - readyAt,
		Request:   har.Request{Method: "GET", URL: o.URL},
		Response: har.Response{
			Status:       status,
			Headers:      headers,
			MIMEType:     o.MIME,
			BodySize:     o.Size,
			TransferSize: o.Size,
		},
		Timings:   timings,
		Initiator: initiator,
		Depth:     o.Depth,
	}
	if s.cache != nil {
		s.cache.store(o.URL, "GET", &s.entries[idx].Response, s.navStart.Add(doneAt))
	}
	return doneAt, true
}

// revalHeaderBytes approximates the on-wire size of a 304 exchange:
// status line plus the handful of refreshed headers.
const revalHeaderBytes = 512

// cacheReadTime models serving a cached body from local storage: a
// fixed lookup cost plus ~2 GB/s of read/deserialization. Deterministic
// — no RNG draw — so warm cache hits perturb no seeded sequence.
func cacheReadTime(size int64) time.Duration {
	return 200*time.Microsecond + time.Duration(size/2)*time.Nanosecond
}

// serveFromCache records a cache hit: the stored response replays with
// no DNS, no connection, no fault draw — only the local read cost.
func (s *loadState) serveFromCache(idx int, readyAt time.Duration, ent *cacheEntry) time.Duration {
	o := s.m.Objects[idx]
	read := cacheReadTime(ent.size)
	doneAt := readyAt + read
	s.done[idx] = doneAt
	s.starts[idx] = readyAt
	s.attempted[idx] = true
	s.cache.hits++
	initiator := ""
	if o.Parent >= 0 {
		initiator = s.m.Objects[o.Parent].URL
	}
	s.entries[idx] = har.Entry{
		StartedAt: s.navStart.Add(readyAt),
		Time:      read,
		Request:   har.Request{Method: "GET", URL: o.URL},
		Response: har.Response{
			Status:   ent.status,
			Headers:  ent.headers,
			MIMEType: ent.mime,
			BodySize: ent.size,
		},
		Timings: har.Timings{
			DNS: har.NotApplicable, Connect: har.NotApplicable, SSL: har.NotApplicable,
			Receive: read,
		},
		Initiator: initiator,
		Depth:     o.Depth,
		FromCache: "memory",
	}
	return doneAt
}

// abort records the HAR entry for a fetch that died, tagging the phase it
// reached. status 0 means no response arrived; a truncation keeps 200
// with the partial body size.
func (s *loadState) abort(idx int, readyAt, doneAt time.Duration, timings har.Timings, phase string, status int, partial int64) {
	o := s.m.Objects[idx]
	s.done[idx] = doneAt
	s.attempted[idx] = true
	s.failed[idx] = true
	s.anyFault = true
	initiator := ""
	if o.Parent >= 0 {
		initiator = s.m.Objects[o.Parent].URL
	}
	var headers []har.Header
	mime := ""
	if status != 0 {
		headers = s.headers(1, 1)
		headers[0] = har.Header{Name: "Content-Type", Value: o.MIME}
		mime = o.MIME
	}
	s.entries[idx] = har.Entry{
		StartedAt: s.navStart.Add(readyAt),
		Time:      doneAt - readyAt,
		Request:   har.Request{Method: "GET", URL: o.URL},
		Response: har.Response{
			Status:       status,
			Headers:      headers,
			MIMEType:     mime,
			BodySize:     partial,
			TransferSize: partial,
		},
		Timings:   timings,
		Initiator: initiator,
		Depth:     o.Depth,
		Aborted:   phase,
	}
}

// closeConn drops a poisoned connection from its origin pool: a request
// that timed out or was cut short kills the transport underneath it, and
// the slot returns to the budget.
func (s *loadState) closeConn(origin string, c *conn) {
	if c == nil {
		return
	}
	p := s.pools[origin]
	if p == nil {
		return
	}
	for i, pc := range p.conns {
		if pc == c {
			// Shift the rest down and park c past the end, where open
			// can reuse it: every slot keeps a distinct conn.
			last := len(p.conns) - 1
			copy(p.conns[i:], p.conns[i+1:])
			p.conns[last] = c
			p.conns = p.conns[:last]
			s.nConns--
			return
		}
	}
}

// compactEntries returns the recorded entries in object order, skipping
// objects that were never attempted (children of dead fetches). In a
// fault-free load this is the full entry set, untouched. It compacts in
// place and zeroes the entries it vacates, so it runs after everything
// that reads an entry by object index.
func (s *loadState) compactEntries() []har.Entry {
	if !s.anyFault {
		return s.entries
	}
	k := 0
	for i := range s.entries {
		if s.attempted[i] {
			s.entries[k] = s.entries[i]
			k++
		}
	}
	clear(s.entries[k:])
	return s.entries[:k]
}

// popFactor maps object popularity to an origin-side processing-time
// multiplier: hot content is served from warm caches, cold content pays
// full generation/IO cost.
func popFactor(pop float64) float64 {
	f := 2.4 / (1 + 1.4*pop)
	if f < 0.4 {
		f = 0.4
	}
	return f
}

func dur0(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// serverSide computes the server's contribution: processing time, any
// backhaul on a CDN miss, identification headers (via accompanies a
// non-empty xcache), and whether a CDN edge answered from its cache
// (edgeHit drives the Age header).
func (s *loadState) serverSide(o *webgen.Object) (think, backhaul time.Duration, xcache, server, via string, edgeHit bool) {
	if o.ViaCDN != "" {
		edge, err := s.edges.Edge(o.ViaCDN)
		if err == nil {
			res := edge.Serve(o.URL, o.Popularity)
			think = res.Think
			if !res.Hit {
				// Backhaul: edge fetches from the origin (or a parent
				// cache) before answering. A missed document must be
				// generated by the origin, not just read from disk.
				gen := s.net.StaticThink()
				if o.Role == webgen.RoleDoc || o.Role == webgen.RoleIframe {
					gen = s.net.OriginThink()
				}
				backhaul = s.net.RTT(s.origLoc) + gen
			}
			xcache = edge.XCacheHeader(res)
			server = edge.Provider.ServerHeader
			return think, backhaul, xcache, server, edge.Provider.ViaHeader, res.Hit
		}
	}
	server = "nginx"
	switch o.Role {
	case webgen.RoleDoc, webgen.RoleIframe, webgen.RoleJSON, webgen.RoleBid, webgen.RoleBeacon, webgen.RoleAdJS, webgen.RoleAdImage:
		// Popular dynamic responses are hot in origin-side caches (page
		// caches, micro-caches, pre-rendered templates): the same
		// popularity asymmetry that favours landing pages at CDN edges
		// (§5.1) shortens their time-to-first-byte at origins.
		think = s.net.OriginThink()
		if o.Role == webgen.RoleBid || o.Role == webgen.RoleAdJS || o.Role == webgen.RoleBeacon {
			// Ad-tech endpoints run auctions and sync flows before
			// answering.
			think = time.Duration(float64(think) * 1.6)
		}
		think = time.Duration(float64(think) * popFactor(o.Popularity))
	default:
		// Static assets also benefit from popularity at the origin:
		// frequently requested files stay in page caches and front-proxy
		// memory.
		think = time.Duration(float64(s.net.StaticThink()) * popFactor(o.Popularity))
	}
	return think, 0, "", server, "", false
}

// visEvent is one visual object's completion, weighted by its share of
// the page's visual content.
type visEvent struct {
	at time.Duration
	w  float64
}

// byAt orders visual events by completion time. sort.Sort runs the same
// pdqsort as sort.Slice, so ties land in the same order, but through a
// pointer it needs no closure or reflection-based swapper.
type byAt []visEvent

func (e *byAt) Len() int           { return len(*e) }
func (e *byAt) Less(i, j int) bool { return (*e)[i].at < (*e)[j].at }
func (e *byAt) Swap(i, j int)      { (*e)[i], (*e)[j] = (*e)[j], (*e)[i] }

// pageTimings derives Navigation Timing marks and the Speed Index.
func (s *loadState) pageTimings(rootDone time.Duration) har.PageTimings {
	m := s.m
	// First paint: document parsed and render-blocking depth-1 resources
	// in. A small style/layout cost follows.
	fp := rootDone + parseDelay
	for i, o := range m.Objects {
		if o.RenderBlocking && s.done[i] > fp {
			fp = s.done[i]
		}
	}
	fp += 20 * time.Millisecond

	onLoad := fp
	for _, d := range s.done {
		if d > onLoad {
			onLoad = d
		}
	}

	// Speed Index: integrate 1 - visual completeness. Nothing is visible
	// before first paint; each visual object contributes its weight when
	// it finishes (or at first paint if it finished earlier).
	totalW := 0.0
	events := s.b.scratch.events[:0]
	for i, o := range m.Objects {
		if o.VisualWeight <= 0 {
			continue
		}
		if !s.attempted[i] || s.failed[i] {
			// Never fetched, or died mid-fetch: this object never
			// renders and contributes nothing to visual completeness.
			continue
		}
		totalW += o.VisualWeight
		at := s.done[i]
		if at < fp {
			at = fp
		}
		events = append(events, visEvent{at: at, w: o.VisualWeight})
	}
	s.b.scratch.events = events
	si := fp
	if totalW > 0 {
		sort.Sort(&s.b.scratch.events)
		completed := 0.0
		prev := fp
		for _, e := range events {
			if e.at > prev {
				si += time.Duration(float64(e.at-prev) * (1 - completed/totalW))
				prev = e.at
			}
			completed += e.w
		}
	}
	return har.PageTimings{FirstPaint: fp, OnLoad: onLoad, SpeedIndex: si}
}
