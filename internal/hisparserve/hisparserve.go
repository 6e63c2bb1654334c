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
	"net/http/pprof"
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
// internet the list was crawled from).
type snapshot struct {
	list *hispar.List
	web  *webgen.Web
}

// payload is one immutable cached response: the identity body, its
// lazily precomputed gzip representation (nil below GzipMin), and the
// validators both share a prefix of.
type payload struct {
	body        []byte
	gz          []byte // nil when below the compression threshold
	contentType string
	etag        string // identity entity-tag, quoted
	lastMod     string // http.TimeFormat
}

// Server is the control plane. Create with New; Handler serves the
// API, Start/Shutdown manage a real listener around it.
type Server struct {
	cfg     Config
	stats   *runstats.Set
	handler http.Handler
	limiter *tokenBucket
	spans   *trace.Ring
	reqSeq  uint64 // atomic; orders spans in the ring

	snapshots *flight[*snapshot]
	studies   *flight[*core.StudyResult]
	payloads  *flight[*payload]

	builds sync.WaitGroup
	httpd  *http.Server
	ln     net.Listener
}

// New creates a server; no listener is opened and no build is started
// until the first request arrives.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		stats:   runstats.NewSet(),
		limiter: newTokenBucket(cfg.RatePerSec, cfg.Burst, cfg.Now),
		spans:   trace.NewRing(cfg.TraceSpans),
	}
	track := func(fn func()) {
		s.builds.Add(1)
		go func() { //detlint:allow gorleak -- single-flight build worker; joined by builds.Wait in Shutdown
			defer s.builds.Done()
			fn()
		}()
	}
	s.snapshots = newFlight[*snapshot](track)
	s.studies = newFlight[*core.StudyResult](track)
	s.payloads = newFlight[*payload](track)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricz", s.handleMetrics)
	mux.HandleFunc("GET /debug/tracez", s.handleTrace)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /v1/lists", s.handleIndex)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/list/{week}", s.handleList)
	mux.HandleFunc("GET /v1/site/{week}/{domain}", s.handleSite)
	mux.HandleFunc("GET /v1/churn/{a}/{b}", s.handleChurn)
	mux.HandleFunc("GET /v1/dataset/{week}", s.handleDataset)
	s.handler = s.withMiddleware(mux)
	return s
}

// Handler returns the full middleware-wrapped API handler (what
// httptest servers and the black-box suite mount).
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
	snap, _, err := s.snapshots.do("snapshot/"+strconv.Itoa(w), true, func() (*snapshot, error) {
		s.stats.Inc("build.snapshot", 1)
		return buildSnapshot(s.cfg, w)
	})
	return snap, err
}

// buildSnapshot regenerates week w from first principles: the world at
// the server's seed and week w, built as cmd/hisparctl build builds it.
func buildSnapshot(cfg Config, week int) (*snapshot, error) {
	w, err := world.Build(world.Config{
		Seed:        cfg.Seed,
		Week:        week,
		Sites:       cfg.Sites,
		URLsPerSite: cfg.URLsPerSite,
		MinResults:  cfg.MinResults,
		Universe:    cfg.Universe,
	})
	if err != nil && (w == nil || len(w.List.Sets) == 0) {
		return nil, fmt.Errorf("hisparserve: week %d: %w", week, err)
	}
	// A partially filled list (bootstrap exhausted) is still a valid,
	// deterministic snapshot; serve what was discovered.
	return &snapshot{list: w.List, web: w.Web}, nil
}

// getStudy builds (once) and returns the measurement study for week w
// over the top `sites` sites of its snapshot.
func (s *Server) getStudy(w, sites int) (*core.StudyResult, error) {
	key := fmt.Sprintf("study/%d?sites=%d", w, sites)
	res, _, err := s.studies.do(key, true, func() (*core.StudyResult, error) {
		snap, err := s.getSnapshot(w)
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
		res, err := study.Run(snap.list.Top(sites))
		if err != nil && len(res.Sites) == 0 {
			return nil, err
		}
		return res, nil
	})
	return res, err
}

// buildPayload finalizes a built body into an immutable payload:
// content hash entity-tag, week-pinned Last-Modified, and (over the
// threshold) a precomputed gzip representation.
func (s *Server) buildPayload(body []byte, contentType string, week int) *payload {
	s.stats.Inc("build.payload", 1)
	sum := sha256.Sum256(body)
	p := &payload{
		body:        body,
		contentType: contentType,
		etag:        `"h` + hex.EncodeToString(sum[:8]) + `"`,
		lastMod:     httpsem.FormatDate(epoch.Add(time.Duration(week) * 7 * 24 * time.Hour)),
	}
	if len(body) >= s.cfg.GzipMin {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf) // zero ModTime: compressed bytes are deterministic
		_, _ = zw.Write(body)
		_ = zw.Close()
		p.gz = buf.Bytes()
	}
	return p
}

// ---- serving ----

// serveCached answers a route through the payload cache. sync routes
// (cheap builds) always block; async routes return 425 Too Early with
// Retry-After while the build runs, unless the request carries ?wait=1.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, alwaysWait bool, build func() (*payload, error)) {
	wait := alwaysWait || r.URL.Query().Get("wait") == "1"
	p, state, err := s.payloads.do(key, wait, build)
	switch state {
	case stateBuilding:
		s.stats.Inc("cache.notready", 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "425 too early: "+key+" is building; retry or request with ?wait=1", http.StatusTooEarly)
	case stateFailed:
		http.Error(w, "build failed: "+err.Error(), http.StatusInternalServerError)
	case stateReady:
		s.writePayload(w, r, p)
	}
}

// writePayload serves an immutable payload with full caching semantics:
// representation selection (identity vs precompressed gzip, each with
// its own entity-tag), Cache-Control freshness, Vary, and RFC 7232
// conditional evaluation.
func (s *Server) writePayload(w http.ResponseWriter, r *http.Request, p *payload) {
	body, etag := p.body, p.etag
	encoding := ""
	if p.gz != nil && httpsem.PreferGzip(r.Header.Get("Accept-Encoding")) {
		body, encoding = p.gz, "gzip"
		etag = p.etag[:len(p.etag)-1] + `-gzip"`
	}

	h := w.Header()
	h.Set("Content-Type", p.contentType)
	h.Set("Cache-Control", fmt.Sprintf("max-age=%d", int(s.cfg.MaxAge.Seconds())))
	h.Set("ETag", etag)
	h.Set("Last-Modified", p.lastMod)
	h.Set("Vary", "Accept-Encoding")

	if httpsem.CheckNotModified(
		r.Header.Get("If-None-Match"), r.Header.Get("If-Modified-Since"),
		etag, p.lastMod) {
		s.stats.Inc("http.revalidated", 1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if encoding != "" {
		h.Set("Content-Encoding", encoding)
		s.stats.Inc("http.gzip", 1)
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(body)
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics serves the live metrics registry. The default body is
// Prometheus text exposition format v0.0.4 (scrapeable); ?format=text
// keeps the human-oriented runstats rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.stats.Render(w)
		return
	}
	w.Header().Set("Content-Type", runstats.ContentTypePrometheus)
	_ = s.stats.Snapshot().WritePrometheus(w)
}

// handleTrace dumps the ring of recent request spans as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	_ = trace.WriteChromeJSON(w, s.spans.Snapshot())
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
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "lists", true, func() (*payload, error) {
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
		return s.buildPayload(append(body, '\n'), "application/json", 0), nil
	})
}

// handleJobs reports every keyed build's state — the observability view
// over the on-demand job machinery. Never cached: it *is* the cache's
// dashboard.
//
//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
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
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	week, ok := s.week(r.PathValue("week"))
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
	key := "list/" + strconv.Itoa(week)
	if top > 0 {
		key += "?top=" + strconv.Itoa(top)
	}
	s.serveCached(w, r, key, false, func() (*payload, error) {
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
		return s.buildPayload(buf.Bytes(), "text/csv; charset=utf-8", week), nil
	})
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
func (s *Server) handleSite(w http.ResponseWriter, r *http.Request) {
	week, ok := s.week(r.PathValue("week"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	domain := r.PathValue("domain")
	// The snapshot must exist before per-site lookups can 404 correctly;
	// site queries block on it (it is shared across all of the week's
	// routes, so steady-state requests never build).
	snap, err := s.getSnapshot(week)
	if err != nil {
		http.Error(w, "build failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	set, ok := snap.list.Set(domain)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.serveCached(w, r, "site/"+strconv.Itoa(week)+"/"+domain, true, func() (*payload, error) {
		body, err := json.MarshalIndent(siteDoc{
			Week: week, Domain: set.Domain, Rank: set.Rank,
			Landing: set.Landing, Internal: set.Internal,
		}, "", "  ")
		if err != nil {
			return nil, err
		}
		return s.buildPayload(append(body, '\n'), "application/json", week), nil
	})
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
func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	a, okA := s.week(r.PathValue("a"))
	b, okB := s.week(r.PathValue("b"))
	if !okA || !okB {
		http.NotFound(w, r)
		return
	}
	week := a
	if b > week {
		week = b
	}
	key := fmt.Sprintf("churn/%d/%d", a, b)
	s.serveCached(w, r, key, false, func() (*payload, error) {
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
		return s.buildPayload(append(body, '\n'), "application/json", week), nil
	})
}

//detlint:hotpath -- request-serving /v1 handler
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	week, ok := s.week(r.PathValue("week"))
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
	site := r.URL.Query().Get("site")
	key := fmt.Sprintf("dataset/%d?sites=%d", week, sites)
	if site != "" {
		key += "&site=" + site
	}
	s.serveCached(w, r, key, false, func() (*payload, error) {
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
		return s.buildPayload(buf.Bytes(), "text/csv; charset=utf-8", week), nil
	})
}
