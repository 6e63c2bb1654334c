// Package hisparserve is the Hispar control plane: a long-running HTTP
// server that publishes the artifacts this repository knows how to build
// — Hispar list snapshots, churn diffs between snapshots, per-site URL
// sets, and full study measurement datasets — to many concurrent
// clients, the way the paper's list and dataset are served from
// hispar.cs.duke.edu and Web View operates as a continuously serving
// measurement platform.
//
// Serving architecture: every route is backed by an options-keyed
// response cache (key = route + canonicalized options). A cache miss
// starts exactly one build — snapshots regenerate the week's universe
// and web, datasets run a real core.Study — and while it runs the
// server answers 425 Too Early with Retry-After, unless the client opts
// into blocking with ?wait=1. Completed payloads are immutable: they
// carry an entity-tag derived from the body hash, a Last-Modified pinned
// to the snapshot week (never the wall clock, so identical seeds serve
// byte- and validator-identical responses forever), Cache-Control
// freshness, and a precompressed gzip representation with its own
// entity-tag (Vary: Accept-Encoding), served when the request's
// Accept-Encoding weights favour gzip (httpsem.PreferGzip). Conditional requests are answered
// 304 through the same RFC 7232 evaluation (internal/httpsem) the rest
// of the tree uses, and internal/browser.CachingClient — the browser
// cache over a real transport — is the reference consumer.
package hisparserve

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/httpsem"
	"repro/internal/runstats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/webgen"
	"repro/internal/world"
)

// epoch pins every Last-Modified the server emits; week w artifacts are
// stamped epoch + w weeks. It matches the study epoch in internal/core.
var epoch = time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)

// Config parameterizes the control plane.
type Config struct {
	// Seed drives every build: same seed, same snapshots, same bytes.
	Seed int64
	// Weeks is how many weekly snapshots are served (weeks 0..Weeks-1).
	Weeks int
	// Sites, URLsPerSite, MinResults, Universe parameterize each
	// week's world (internal/world), the one hisparctl build writes.
	Sites, URLsPerSite, MinResults, Universe int
	// StudySites caps how many top sites a dataset build measures.
	StudySites int
	// LandingFetches is the per-landing-page fetch count for datasets.
	LandingFetches int
	// MaxAge is the freshness lifetime advertised on cacheable payloads.
	MaxAge time.Duration
	// GzipMin is the identity-body size at or above which a gzip
	// representation is precomputed (the algernon threshold).
	GzipMin int
	// RatePerSec and Burst configure the /v1/ token-bucket rate limiter;
	// RatePerSec <= 0 disables limiting.
	RatePerSec float64
	Burst      int
	// Now supplies the rate limiter's clock (default vclock.Wall).
	// Response bodies and validators never depend on it.
	Now func() time.Time
	// TraceSpans sizes the in-memory ring of recent request spans served
	// at /debug/tracez (default 256).
	TraceSpans int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose process internals.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Weeks <= 0 {
		c.Weeks = 4
	}
	if c.Sites <= 0 {
		c.Sites = 24
	}
	if c.URLsPerSite <= 0 {
		c.URLsPerSite = 8
	}
	if c.MinResults <= 0 {
		c.MinResults = 2
	}
	if c.Universe <= 0 {
		c.Universe = 1500
	}
	if c.StudySites <= 0 {
		c.StudySites = 8
	}
	if c.LandingFetches <= 0 {
		c.LandingFetches = 2
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 5 * time.Minute
	}
	if c.GzipMin <= 0 {
		c.GzipMin = 4096
	}
	if c.Now == nil {
		c.Now = vclock.Wall // sanctioned telemetry clock; never reaches a response body
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 256
	}
	return c
}

// snapshot is one week's built list plus the web it was discovered on
// (the web is retained so dataset builds measure the same synthetic
// internet the list was crawled from), and the position of each domain
// in the list.
type snapshot struct {
	list  *hispar.List
	web   *webgen.Web
	index map[string]int // domain → index into list.Sets (its first set)
}

// payload is one immutable cached response: its identity and gzip
// representations and the values of its headers. Header values are
// built once and shared by every response that serves them: each is a
// one-element slice, so a later Header.Add reallocates instead of
// writing into it.
type payload struct {
	identity    representation
	gzip        *representation // nil below the compression threshold
	contentType []string        // one of the content types below
	lastMod     []string        // the week's Last-Modified (Server.lastMod)
}

// representation is one encoding of a payload's body.
type representation struct {
	body   []byte
	etag   [1]string // quoted entity-tag; the gzip one ends -gzip"
	length [1]string // Content-Length: len(body) in decimal
}

func newRepresentation(body []byte, etag string) representation {
	return representation{body: body, etag: [1]string{etag}, length: [1]string{strconv.Itoa(len(body))}}
}

// Header values payload responses share.
var (
	jsonType     = []string{"application/json"}
	csvType      = []string{"text/csv; charset=utf-8"}
	varyEncoding = []string{"Accept-Encoding"}
	gzipEncoding = []string{"gzip"}
)

// Server is the control plane. Create with New; Handler serves the
// API, Start/Shutdown manage a real listener around it.
type Server struct {
	cfg          Config
	stats        *runstats.Set
	handler      http.Handler
	limiter      *tokenBucket
	routes       []*route               // the route table's entries the config enables, in match order
	requests     *trace.Ring[reqRecord] // recent requests, served as spans at /debug/tracez
	recorders    sync.Pool              // *recorder: each request's response writer
	cacheControl []string               // Cache-Control of every payload response
	lastMod      [][]string             // Last-Modified of week w's payloads: epoch + w weeks

	snapshots *flight[snapshotKey, *snapshot]
	studies   *flight[studyKey, *core.StudyResult]
	payloads  *flight[payloadKey, *payload]

	builds sync.WaitGroup
	httpd  *http.Server
	ln     net.Listener
}

// New creates a server; no listener is opened and no build is started
// until the first request arrives.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		stats:        runstats.NewSet(),
		limiter:      newTokenBucket(cfg.RatePerSec, cfg.Burst, cfg.Now),
		requests:     trace.NewRing[reqRecord](cfg.TraceSpans),
		cacheControl: []string{"max-age=" + strconv.Itoa(int(cfg.MaxAge.Seconds()))},
		lastMod:      make([][]string, cfg.Weeks),
	}
	for w := range s.lastMod {
		s.lastMod[w] = []string{httpsem.FormatDate(epoch.Add(time.Duration(w) * 7 * 24 * time.Hour))}
	}
	track := func(fn func()) {
		s.builds.Add(1)
		go func() { //detlint:allow gorleak -- single-flight build worker; joined by builds.Wait in Shutdown
			defer s.builds.Done()
			fn()
		}()
	}
	s.snapshots = newFlight(track, s.buildSnapshot)
	s.studies = newFlight(track, s.buildStudy)
	s.payloads = newFlight(track, s.buildPayload)

	for _, rt := range routeTable {
		if !rt.pprof || cfg.EnablePprof {
			s.routes = append(s.routes, rt)
		}
	}
	s.recorders.New = func() any { return new(recorder) }
	s.handler = http.HandlerFunc(s.serveHTTP)
	return s
}

// Handler returns the server's handler: the request record, the rate
// limiter and the router in front of the routes (what httptest servers
// and the black-box suite mount).
func (s *Server) Handler() http.Handler { return s.handler }

// Stats exposes the server's live metrics.
func (s *Server) Stats() *runstats.Set { return s.stats }

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves until
// Shutdown or Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("hisparserve: listen: %w", err)
	}
	s.ln = ln
	s.httpd = &http.Server{Handler: s.handler}
	go func() { _ = s.httpd.Serve(ln) }() //detlint:allow gorleak -- accept-loop daemon: Serve returns when Shutdown/Close closes the listener
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: the listener closes immediately, in-flight
// requests complete, and any in-flight background builds are joined so
// no goroutine outlives the server. ctx bounds the request drain.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpd != nil {
		err = s.httpd.Shutdown(ctx)
		if err != nil {
			_ = s.httpd.Close()
		}
	}
	s.builds.Wait()
	return err
}

// Close stops the server immediately. Background builds are still
// joined: a cut connection must not leak a build goroutine.
func (s *Server) Close() error {
	var err error
	if s.httpd != nil {
		err = s.httpd.Close()
	}
	s.builds.Wait()
	return err
}

// ---- build layers ----

// week parses and bounds a week path segment.
func (s *Server) week(raw string) (int, bool) {
	w, err := strconv.Atoi(raw)
	if err != nil || w < 0 || w >= s.cfg.Weeks {
		return 0, false
	}
	return w, true
}

// getSnapshot builds (once) and returns week w's snapshot. It blocks;
// snapshot builds only ever run inside payload builds, which are
// themselves async when the client did not opt into waiting.
func (s *Server) getSnapshot(w int) (*snapshot, error) {
	snap, _, err := s.snapshots.do(snapshotKey(w), true)
	return snap, err
}

// buildSnapshot regenerates week k from first principles: the world at
// the server's seed and week k, built as cmd/hisparctl build builds it.
func (s *Server) buildSnapshot(k snapshotKey) (*snapshot, error) {
	s.stats.Inc("build.snapshot", 1)
	week := int(k)
	w, err := world.Build(world.Config{
		Seed:        s.cfg.Seed,
		Week:        week,
		Sites:       s.cfg.Sites,
		URLsPerSite: s.cfg.URLsPerSite,
		MinResults:  s.cfg.MinResults,
		Universe:    s.cfg.Universe,
	})
	if err != nil && (w == nil || len(w.List.Sets) == 0) {
		return nil, fmt.Errorf("hisparserve: week %d: %w", week, err)
	}
	// A partially filled list (bootstrap exhausted) is still a valid,
	// deterministic snapshot; serve what was discovered.
	snap := &snapshot{list: w.List, web: w.Web, index: make(map[string]int, len(w.List.Sets))}
	for i, set := range w.List.Sets {
		if _, dup := snap.index[set.Domain]; !dup {
			snap.index[set.Domain] = i
		}
	}
	return snap, nil
}

// getStudy builds (once) and returns the measurement study for week w
// over the top `sites` sites of its snapshot.
func (s *Server) getStudy(w, sites int) (*core.StudyResult, error) {
	res, _, err := s.studies.do(studyKey{week: w, sites: sites}, true)
	return res, err
}

func (s *Server) buildStudy(k studyKey) (*core.StudyResult, error) {
	snap, err := s.getSnapshot(k.week)
	if err != nil {
		return nil, err
	}
	s.stats.Inc("build.study", 1)
	study, err := core.NewStudy(snap.web, core.StudyConfig{
		Seed:           s.cfg.Seed,
		LandingFetches: s.cfg.LandingFetches,
	})
	if err != nil {
		return nil, err
	}
	res, err := study.Run(snap.list.Top(k.sites))
	if err != nil && len(res.Sites) == 0 {
		return nil, err
	}
	return res, nil
}

// buildPayload builds the response a payload key names.
func (s *Server) buildPayload(k payloadKey) (*payload, error) {
	switch k.kind {
	case kindIndex:
		return s.buildIndex()
	case kindList:
		return s.buildList(k.week, k.n)
	case kindSite:
		return s.buildSite(k.week, k.name)
	case kindChurn:
		return s.buildChurn(k.week, k.n)
	default:
		return s.buildDataset(k.week, k.n, k.name)
	}
}

// newPayload finalizes a built body into an immutable payload: content
// hash entity-tag, week-pinned Last-Modified, and (over the threshold) a
// precomputed gzip representation. The payload keeps copies of exactly
// the bodies' bytes, not the growth slack of the buffers they were
// built in: it lives as long as the server.
func (s *Server) newPayload(body []byte, contentType []string, week int) *payload {
	s.stats.Inc("build.payload", 1)
	body = bytes.Clone(body)
	sum := sha256.Sum256(body)
	etag := `"h` + hex.EncodeToString(sum[:8])
	p := &payload{
		identity:    newRepresentation(body, etag+`"`),
		contentType: contentType,
		lastMod:     s.lastMod[week],
	}
	if len(body) >= s.cfg.GzipMin {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf) // zero ModTime: compressed bytes are deterministic
		_, _ = zw.Write(body)
		_ = zw.Close()
		gz := newRepresentation(bytes.Clone(buf.Bytes()), etag+`-gzip"`)
		p.gzip = &gz
	}
	return p
}

// ---- serving ----

// serveCached answers a route through the payload cache. sync routes
// (cheap builds) always block; async routes return 425 Too Early with
// Retry-After while the build runs, unless the request carries ?wait=1.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key payloadKey, alwaysWait bool) {
	wait := alwaysWait || r.URL.Query().Get("wait") == "1"
	p, state, err := s.payloads.do(key, wait)
	switch state {
	case stateBuilding:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "425 too early: "+key.String()+" is building; retry or request with ?wait=1", http.StatusTooEarly)
	case stateFailed:
		http.Error(w, "build failed: "+err.Error(), http.StatusInternalServerError)
	case stateReady:
		s.writePayload(w, r, p)
	}
}

// writePayload serves an immutable payload with full caching semantics:
// representation selection (identity vs precompressed gzip, each with
// its own entity-tag), Cache-Control freshness, Vary, and RFC 7232
// conditional evaluation. A 304 or a gzip response is marked on the
// request's record, which the middleware commits.
//
// Headers are read and written by canonical key, directly: request
// headers are canonical as net/http parses them, and the response
// values are the payload's own, so serving one builds nothing.
func (s *Server) writePayload(w http.ResponseWriter, r *http.Request, p *payload) {
	rep, gzipped := &p.identity, false
	if p.gzip != nil && httpsem.PreferGzip(first(r.Header["Accept-Encoding"])) {
		rep, gzipped = p.gzip, true
	}

	h := w.Header()
	h["Content-Type"] = p.contentType
	h["Cache-Control"] = s.cacheControl
	h["Etag"] = rep.etag[:]
	h["Last-Modified"] = p.lastMod
	h["Vary"] = varyEncoding

	rec := recordOf(w)
	if httpsem.CheckNotModified(
		first(r.Header["If-None-Match"]), first(r.Header["If-Modified-Since"]),
		rep.etag[0], p.lastMod[0]) {
		rec.revalidated = true
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if gzipped {
		h["Content-Encoding"] = gzipEncoding
		rec.gzip = true
	}
	h["Content-Length"] = rep.length[:]
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(rep.body)
}

// first is a header's first value, as Header.Get reads it.
func first(values []string) string {
	if len(values) == 0 {
		return ""
	}
	return values[0]
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request, _ pathValues) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics serves the live metrics registry. The default body is
// Prometheus text exposition format v0.0.4 (scrapeable); ?format=text
// keeps the human-oriented runstats rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ pathValues) {
	w.Header().Set("Cache-Control", "no-store")
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.stats.Render(w)
		return
	}
	w.Header().Set("Content-Type", runstats.ContentTypePrometheus)
	_ = s.stats.Snapshot().WritePrometheus(w)
}

// handleTrace serves the ring of recent requests as spans, in Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request, _ pathValues) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	_ = trace.WriteChromeJSON(w, s.requestSpans())
}

// indexDoc is the /v1/lists body: what is served and how to ask for it.
type indexDoc struct {
	Weeks       []int    `json:"weeks"`
	Sites       int      `json:"sites"`
	URLsPerSite int      `json:"urls_per_site"`
	StudySites  int      `json:"study_sites"`
	Endpoints   []string `json:"endpoints"`
}

//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request, _ pathValues) {
	s.serveCached(w, r, payloadKey{kind: kindIndex}, true)
}

func (s *Server) buildIndex() (*payload, error) {
	doc := indexDoc{
		Weeks:       make([]int, s.cfg.Weeks),
		Sites:       s.cfg.Sites,
		URLsPerSite: s.cfg.URLsPerSite,
		StudySites:  s.cfg.StudySites,
		Endpoints: []string{
			"/v1/list/{week}", "/v1/site/{week}/{domain}",
			"/v1/churn/{a}/{b}", "/v1/dataset/{week}", "/v1/jobs",
		},
	}
	for i := range doc.Weeks {
		doc.Weeks[i] = i
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return s.newPayload(append(body, '\n'), jsonType, 0), nil
}

// handleJobs reports every keyed build's state — the observability view
// over the on-demand job machinery. Never cached: it *is* the cache's
// dashboard.
//
//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request, _ pathValues) {
	type jobs struct {
		Payloads  []buildInfo `json:"payloads"`
		Studies   []buildInfo `json:"studies"`
		Snapshots []buildInfo `json:"snapshots"`
	}
	body, err := json.MarshalIndent(jobs{
		Payloads:  s.payloads.info(),
		Studies:   s.studies.info(),
		Snapshots: s.snapshots.info(),
	}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write(append(body, '\n'))
}

//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, v pathValues) {
	week, ok := s.week(v[0])
	if !ok {
		http.NotFound(w, r)
		return
	}
	top := 0
	if v := r.URL.Query().Get("top"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			http.Error(w, "bad top parameter", http.StatusBadRequest)
			return
		}
		top = k
	}
	s.serveCached(w, r, payloadKey{kind: kindList, week: week, n: top}, false)
}

func (s *Server) buildList(week, top int) (*payload, error) {
	snap, err := s.getSnapshot(week)
	if err != nil {
		return nil, err
	}
	list := snap.list
	if top > 0 {
		list = list.Top(top)
	}
	var buf bytes.Buffer
	if err := list.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return s.newPayload(buf.Bytes(), csvType, week), nil
}

// siteDoc is one site's URL set as served by /v1/site.
type siteDoc struct {
	Week     int      `json:"week"`
	Domain   string   `json:"domain"`
	Rank     int      `json:"rank"`
	Landing  string   `json:"landing"`
	Internal []string `json:"internal"`
}

//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleSite(w http.ResponseWriter, r *http.Request, v pathValues) {
	week, ok := s.week(v[0])
	if !ok {
		http.NotFound(w, r)
		return
	}
	domain := v[1]
	// The snapshot must exist before per-site lookups can 404 correctly;
	// site queries block on it (it is shared across all of the week's
	// routes, so steady-state requests never build).
	snap, err := s.getSnapshot(week)
	if err != nil {
		http.Error(w, "build failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if _, ok := snap.index[domain]; !ok {
		http.NotFound(w, r)
		return
	}
	s.serveCached(w, r, payloadKey{kind: kindSite, week: week, name: domain}, true)
}

func (s *Server) buildSite(week int, domain string) (*payload, error) {
	snap, err := s.getSnapshot(week)
	if err != nil {
		return nil, err
	}
	set := &snap.list.Sets[snap.index[domain]]
	body, err := json.MarshalIndent(siteDoc{
		Week: week, Domain: set.Domain, Rank: set.Rank,
		Landing: set.Landing, Internal: set.Internal,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return s.newPayload(append(body, '\n'), jsonType, week), nil
}

// churnDoc is the /v1/churn body: the paper's two-level churn between
// two weekly snapshots.
type churnDoc struct {
	WeekA         int     `json:"week_a"`
	WeekB         int     `json:"week_b"`
	SitesA        int     `json:"sites_a"`
	SitesB        int     `json:"sites_b"`
	SiteChurn     float64 `json:"site_churn"`
	InternalChurn float64 `json:"internal_churn"`
}

//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request, v pathValues) {
	a, okA := s.week(v[0])
	b, okB := s.week(v[1])
	if !okA || !okB {
		http.NotFound(w, r)
		return
	}
	s.serveCached(w, r, payloadKey{kind: kindChurn, week: a, n: b}, false)
}

func (s *Server) buildChurn(a, b int) (*payload, error) {
	snapA, err := s.getSnapshot(a)
	if err != nil {
		return nil, err
	}
	snapB, err := s.getSnapshot(b)
	if err != nil {
		return nil, err
	}
	body, err := json.MarshalIndent(churnDoc{
		WeekA: a, WeekB: b,
		SitesA:        len(snapA.list.Sets),
		SitesB:        len(snapB.list.Sets),
		SiteChurn:     hispar.SiteChurn(snapA.list, snapB.list),
		InternalChurn: hispar.InternalChurn(snapA.list, snapB.list),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return s.newPayload(append(body, '\n'), jsonType, max(a, b)), nil
}

//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request, v pathValues) {
	week, ok := s.week(v[0])
	if !ok {
		http.NotFound(w, r)
		return
	}
	sites := s.cfg.StudySites
	if v := r.URL.Query().Get("sites"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			http.Error(w, "bad sites parameter", http.StatusBadRequest)
			return
		}
		sites = k
	}
	key := payloadKey{kind: kindDataset, week: week, n: sites, name: r.URL.Query().Get("site")}
	s.serveCached(w, r, key, false)
}

func (s *Server) buildDataset(week, sites int, site string) (*payload, error) {
	res, err := s.getStudy(week, sites)
	if err != nil {
		return nil, err
	}
	if site != "" {
		filtered := &core.StudyResult{List: res.List}
		for i := range res.Sites {
			if res.Sites[i].Domain == site {
				filtered.Sites = append(filtered.Sites, res.Sites[i])
			}
		}
		if len(filtered.Sites) == 0 {
			return nil, fmt.Errorf("site %q not in week %d dataset", site, week)
		}
		res = filtered
	}
	var buf bytes.Buffer
	if err := core.WriteMeasurementsCSV(&buf, res); err != nil {
		return nil, err
	}
	return s.newPayload(buf.Bytes(), csvType, week), nil
}
