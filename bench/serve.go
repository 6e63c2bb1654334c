package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/hispar"
	"repro/internal/hisparserve"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// serveShape is the serving workload: a closed loop of `workers`
// clients, each sending `requests` in-process requests to the server's
// handler, waiting for each reply before sending the next.
type serveShape struct {
	sites, perSite int
	requests       int // per client
}

// The request mix is hisparserve.RunLoad's, at its defaults: site
// lookups drawn zipf(zipfS) over ranks, every listEvery-th request of a
// client the full list CSV, gzip advertised by every even-numbered
// client, and the last validator seen for a URL always sent back.
const (
	zipfS     = 1.2
	listEvery = 50
	listPath  = "/v1/list/0?wait=1"
)

// traceSpans is how many requests per client the traced repeat keeps as
// spans; all of them would make a trace of millions of events.
const traceSpans = 1000

// Routes × statuses the traced repeat groups request timings by.
const (
	routeSite = iota
	routeList
	numRoutes
)

var routeNames = [numRoutes]string{"site", "list"}

// serverSeed is the seed hisparserve builds with: it reads 0 as its
// default seed, 42.
func serverSeed(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

func (s serveShape) config(seed int64) hisparserve.Config {
	return hisparserve.Config{
		Seed: serverSeed(seed), Weeks: 1,
		Sites: s.sites, URLsPerSite: s.perSite, Universe: max(4000, s.sites*3),
	}
}

// snapshotShape is the list build hisparserve runs for week 0.
func (s serveShape) snapshotShape() snapshotShape {
	return snapshotShape{
		sites: s.sites, perSite: s.perSite, universe: max(4000, s.sites*3),
		bootstrapNum: 2, bootstrapDen: 1, minResults: 2,
	}
}

// discardWriter is the response writer of the closed loop: it keeps the
// status and headers and drops the body, unless asked to capture it for
// a validator check. httptest.ResponseRecorder would copy every body.
type discardWriter struct {
	header  http.Header
	status  int
	capture bool
	body    bytes.Buffer
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: make(http.Header)} }

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

func (d *discardWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	if d.capture {
		d.body.Write(p)
	}
	return len(p), nil
}

func (d *discardWriter) reset(capture bool) {
	clear(d.header)
	d.status = 0
	d.capture = capture
	d.body.Reset()
}

// target is one URL the clients request.
type target struct {
	route int
	url   *url.URL
	uri   string
}

func newTarget(route int, uri string) (target, error) {
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		return target{}, err
	}
	return target{route: route, url: u, uri: uri}, nil
}

func (t target) request(gz bool, etag string) *http.Request {
	r := &http.Request{
		Method: http.MethodGet, URL: t.url, RequestURI: t.uri, Host: "hisparserve",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: make(http.Header, 2),
	}
	if gz {
		r.Header.Set("Accept-Encoding", "gzip")
	}
	if etag != "" {
		r.Header.Set("If-None-Match", etag)
	}
	return r
}

// verifyETag checks a 200 body against its entity-tag: the tag is
// "h"+hex(sha256(identity body)[:8]), with a -gzip suffix on the gzip
// representation, whose body is gunzipped first.
func verifyETag(body []byte, contentEncoding, etag string) error {
	identity, suffix := body, ""
	if contentEncoding == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("gunzip: %w", err)
		}
		if identity, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("gunzip: %w", err)
		}
		suffix = "-gzip"
	}
	sum := sha256.Sum256(identity)
	if want := `"h` + hex.EncodeToString(sum[:8]) + suffix + `"`; etag != want {
		return fmt.Errorf("ETag %s, body hashes to %s", etag, want)
	}
	return nil
}

// serveSetup is one fresh server with week 0 built.
type serveSetup struct {
	srv     *hisparserve.Server
	targets []target
	list    []byte // the served list CSV
}

// setup creates the server and builds week 0 through the list route,
// then derives the request targets from the served list.
func (s serveShape) setup(seed int64) (*serveSetup, time.Duration, error) {
	t := vclock.Wall()
	srv := hisparserve.New(s.config(seed))
	lt, err := newTarget(routeList, listPath)
	if err != nil {
		return nil, 0, err
	}
	w := newDiscardWriter()
	w.reset(true)
	srv.Handler().ServeHTTP(w, lt.request(false, ""))
	d := vclock.WallSince(t)
	if w.status != http.StatusOK {
		_ = srv.Close()
		return nil, d, fmt.Errorf("GET %s: status %d", listPath, w.status)
	}
	list, err := hispar.ReadCSV(bytes.NewReader(w.body.Bytes()))
	if err != nil || len(list.Sets) == 0 {
		_ = srv.Close()
		return nil, d, fmt.Errorf("GET %s: unreadable list (%v)", listPath, err)
	}
	ss := &serveSetup{srv: srv, list: bytes.Clone(w.body.Bytes())}
	for _, set := range list.Sets {
		st, err := newTarget(routeSite, "/v1/site/0/"+set.Domain)
		if err != nil {
			_ = srv.Close()
			return nil, d, err
		}
		ss.targets = append(ss.targets, st)
	}
	ss.targets = append(ss.targets, lt)
	return ss, d, nil
}

// clientRun is what one client of the loop saw.
type clientRun struct {
	lat      []time.Duration
	tally    map[[2]int]int64 // (route, status) → responses
	groups   map[[2]int][]time.Duration
	spans    []trace.Span
	wall     time.Duration
	problems []string
}

// serveUnit is one timed closed loop over a fresh server.
type serveUnit struct {
	wall                          time.Duration
	requests, unexpected          int64
	revalidated, gzipped, payload int64
	p50, p99, tail                float64 // request latency, µs
	samples                       int
	groups                        map[[2]int][]time.Duration
	spans                         []trace.Span
	busy, clientWall              time.Duration
	digest                        string
	rt                            runtimeDelta
	problems                      []string
}

// loop runs the closed loop: workers clients, each with its own seeded
// request stream and validator memory. With traced set, timings are also
// grouped by route × status and the first traceSpans requests of each
// client kept as spans.
func (s serveShape) loop(ss *serveSetup, seed int64, traced bool) serveUnit {
	h := ss.srv.Handler()
	runs := make([]clientRun, workers)
	var wg sync.WaitGroup
	rt := readRuntime()
	start := vclock.Wall()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = s.client(h, ss.targets, seed+int64(c)*7919, c, traced)
		}(c)
	}
	wg.Wait()
	u := serveUnit{wall: vclock.WallSince(start), rt: runtimeSince(rt), groups: make(map[[2]int][]time.Duration)}

	tally := make(map[[2]int]int64)
	var lat []time.Duration
	for _, run := range runs {
		lat = append(lat, run.lat...)
		u.problems = append(u.problems, run.problems...)
		u.spans = append(u.spans, run.spans...)
		u.clientWall += run.wall
		for k, n := range run.tally {
			tally[k] += n
			u.requests += n
			if k[1] != http.StatusOK && k[1] != http.StatusNotModified {
				u.unexpected += n
			}
		}
		for k, ds := range run.groups {
			u.groups[k] = append(u.groups[k], ds...)
		}
	}
	for _, d := range lat {
		u.busy += d
	}
	u.samples = len(lat)
	u.p50, u.p99, u.tail = percentiles(lat)
	u.digest = tallyDigest(tally)
	st := ss.srv.Stats()
	u.revalidated = st.Counter("http.revalidated")
	u.gzipped = st.Counter("http.gzip")
	u.payload = st.Counter("build.payload")
	return u
}

// tallyDigest hashes the (route, status) response tally in sorted order.
func tallyDigest(tally map[[2]int]int64) string {
	keys := make([][2]int, 0, len(tally))
	for k := range tally {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	hs := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(hs, "%s %d %d\n", routeNames[k[0]], k[1], tally[k])
	}
	return hex.EncodeToString(hs.Sum(nil))
}

// client is one simulated consumer of hisparserve.RunLoad's mix. Its
// encoding is fixed, so one validator and one body check per URL cover
// each (URL, encoding) it sees.
func (s serveShape) client(h http.Handler, targets []target, seed int64, c int, traced bool) clientRun {
	rng := rand.New(rand.NewSource(seed))
	sites := len(targets) - 1 // the last target is the list
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(sites-1))
	gz := c%2 == 0
	etags := make([]string, len(targets)) // validator memory per URL
	checked := make([]bool, len(targets)) // 200 bodies verified per URL
	run := clientRun{lat: make([]time.Duration, 0, s.requests), tally: make(map[[2]int]int64)}
	if traced {
		run.groups = make(map[[2]int][]time.Duration)
	}
	clientSpan := trace.DeriveID("client", strconv.Itoa(c))
	w := newDiscardWriter()
	start := vclock.Wall()
	for i := 0; i < s.requests; i++ {
		ti := sites
		if i%listEvery != listEvery-1 {
			ti = int(zipf.Uint64())
		}
		etag := etags[ti]
		t := targets[ti]
		req := t.request(gz, etag)
		w.reset(!checked[ti])

		t0 := vclock.Wall()
		h.ServeHTTP(w, req)
		d := vclock.WallSince(t0)

		run.lat = append(run.lat, d)
		k := [2]int{t.route, w.status}
		run.tally[k]++
		if traced {
			run.groups[k] = append(run.groups[k], d)
			if i < traceSpans {
				run.spans = append(run.spans, trace.Span{
					ID:     trace.DeriveID("request", strconv.Itoa(c), strconv.Itoa(i)),
					Parent: clientSpan, Name: "GET " + t.uri,
					Cat: routeNames[t.route] + " " + strconv.Itoa(w.status), TID: int64(c) + 1,
					Start: t0, Dur: d,
				})
			}
		}
		if tag := w.header.Get("ETag"); tag != "" {
			etags[ti] = tag
		}
		switch w.status {
		case http.StatusOK:
			if !checked[ti] {
				checked[ti] = true
				if err := verifyETag(w.body.Bytes(), w.header.Get("Content-Encoding"), w.header.Get("ETag")); err != nil {
					run.problems = append(run.problems, fmt.Sprintf("GET %s (gzip %v): %v", t.uri, gz, err))
				}
			}
		case http.StatusNotModified:
			if etag == "" {
				run.problems = append(run.problems, fmt.Sprintf("GET %s: 304 without a validator", t.uri))
			}
		}
	}
	run.wall = vclock.WallSince(start)
	if traced {
		run.spans = append(run.spans, trace.Span{
			ID: clientSpan, Name: "client " + strconv.Itoa(c), Cat: "client",
			TID: int64(c) + 1, Start: start, Dur: run.wall,
		})
	}
	return run
}

// percentiles returns the median, the 99th percentile and the highest
// percentile with at least ten samples beyond it (nearest rank), in µs.
// It sorts lat in place.
func percentiles(lat []time.Duration) (p50, p99, tail float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	slices.Sort(lat)
	us := func(i int) float64 { return float64(lat[i].Nanoseconds()) / 1e3 }
	at := func(q float64) float64 { return us(int(q * float64(len(lat)-1))) }
	return at(0.50), at(0.99), us(max(len(lat)-11, 0))
}

// runServe runs serve-zipf: fresh server and one timed closed loop per
// unit, units repeated while another fits in the budget, at least three
// set-ups. With trace on it replays the snapshot build from outside to
// split set-up by layer, and repeats the loop with timings grouped by
// route × status.
func (s serveShape) runServe(opt options) *report {
	r := newReport()
	var (
		setups   []float64
		units    []serveUnit
		mem      rssSampler
		measured time.Duration
		wantList []byte
	)
	setup := func() (*serveSetup, bool) {
		ss, d, err := s.setup(opt.seed)
		if err != nil {
			r.fail("set-up: %v", err)
			return nil, false
		}
		setups = append(setups, d.Seconds())
		if wantList == nil {
			wantList = ss.list
		} else if !bytes.Equal(ss.list, wantList) {
			r.fail("set-up is not deterministic: the served list changed")
		}
		return ss, true
	}
	for {
		ss, ok := setup()
		if !ok {
			return r
		}
		var u serveUnit
		mem.during(func() { u = s.loop(ss, opt.seed, false) })
		if err := ss.srv.Close(); err != nil {
			r.fail("close server: %v", err)
		}
		units = append(units, u)
		fmt.Fprintf(os.Stderr, "serve-zipf: unit %d: %d requests in %.2fs\n", len(units), u.requests, u.wall.Seconds())
		r.attempted += u.requests
		r.failed += u.unexpected
		for _, p := range u.problems {
			r.fail("%s", p)
		}
		measured += u.wall
		if measured+u.wall > opt.budget {
			break
		}
	}
	for len(setups) < minSetups {
		ss, ok := setup()
		if !ok {
			return r
		}
		if err := ss.srv.Close(); err != nil {
			r.fail("close server: %v", err)
		}
	}
	r.values["setup_s"] = median(setups)

	var walls, rps, p50s, p99s, tails, gcs, allocs []float64
	for _, u := range units {
		if u.digest != units[0].digest {
			r.fail("response tally is not deterministic: digest %s, then %s", units[0].digest, u.digest)
		}
		walls = append(walls, u.wall.Seconds())
		rps = append(rps, float64(u.requests)/u.wall.Seconds())
		p50s, p99s, tails = append(p50s, u.p50), append(p99s, u.p99), append(tails, u.tail)
		gcs = append(gcs, u.rt.gcShare)
		allocs = append(allocs, u.rt.allocBytes/1024/float64(u.requests))
	}
	u := units[0]
	r.sha256 = u.digest
	r.values["ops_per_s"] = median(rps)
	rss, err := mem.mean()
	if err != nil {
		r.fail("rss: %v", err)
	}
	r.values["rss_mb"] = rss
	r.values["serve.p50_us"] = median(p50s)
	r.values["serve.p99_us"] = median(p99s)
	r.values["serve.tail_us"] = median(tails)
	r.values["serve.samples"] = float64(u.samples)
	r.values["runtime.gc_cpu_share"] = median(gcs)
	r.values["runtime.alloc_kb_per_op"] = median(allocs)
	r.values["failed_share"] = float64(u.unexpected) / float64(u.requests)
	r.values["hisparserve.revalidated_share"] = float64(u.revalidated) / float64(u.requests)
	r.values["hisparserve.gzip_share"] = float64(u.gzipped) / float64(u.requests)
	r.values["hisparserve.payload_builds"] = float64(u.payload)
	if opt.traced {
		s.traceServe(opt, wantList, u.digest, median(walls), r)
	}
	return r
}

// traceServe is the traced run of serve-zipf. digest and wall are the
// untraced loops' tally digest and median wall time in seconds.
func (s serveShape) traceServe(opt options, servedList []byte, digest string, wall float64, r *report) {
	// Set-up by layer: hisparserve's week-0 snapshot build, step by step.
	c, parts, err := buildCorpus(serverSeed(opt.seed), s.snapshotShape())
	if err != nil {
		r.fail("snapshot replay: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := c.list.WriteCSV(&buf); err != nil || !bytes.Equal(buf.Bytes(), servedList) {
		r.fail("snapshot replay built a different list than the server (%v)", err)
	}
	setupSamples{parts}.recordParts(r)

	ss, _, err := s.setup(opt.seed)
	if err != nil {
		r.fail("traced set-up: %v", err)
		return
	}
	u := s.loop(ss, opt.seed, true)
	if err := ss.srv.Close(); err != nil {
		r.fail("close server: %v", err)
	}
	if u.digest != digest {
		r.fail("traced loop tally %s differs from the untraced %s", u.digest, digest)
	}
	group := func(route, status int) float64 {
		p50, _, _ := percentiles(u.groups[[2]int{route, status}])
		return p50
	}
	r.values["hisparserve.site_304_us"] = group(routeSite, http.StatusNotModified)
	r.values["hisparserve.site_200_us"] = group(routeSite, http.StatusOK)
	r.values["hisparserve.list_200_us"] = group(routeList, http.StatusOK)
	r.values["trace.coverage"] = u.busy.Seconds() / u.clientWall.Seconds()
	r.values["trace.overhead"] = u.wall.Seconds()/wall - 1
	if opt.tracePath != "" {
		if err := writeTrace(opt.tracePath, u.spans); err != nil {
			r.fail("write trace: %v", err)
		}
	}
}
