package hisparserve

// The end-to-end black-box suite: every assertion here goes through a
// real net/http/httptest server and the full middleware stack — status
// codes, headers, and body hashes at the network layer, never internal
// state. This is the server's HTTP contract; if a case here changes,
// deployed consumers break.

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testConfig is small enough that every build completes in milliseconds
// but still exercises multi-week snapshots, study datasets, and
// gzip-eligible payloads (list CSVs exceed GzipMin).
func testConfig() Config {
	return Config{
		Seed: 7, Weeks: 2,
		Sites: 10, URLsPerSite: 5, MinResults: 2, Universe: 600,
		StudySites: 4, LandingFetches: 2,
		GzipMin: 512, MaxAge: 5 * time.Minute,
	}
}

func startTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.builds.Wait() // never leak a build past the test
	})
	return s, ts
}

// do issues one request with optional extra headers and returns the
// response plus its full body.
func do(t *testing.T, method, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Defeat the transport's transparent gzip: this suite asserts raw
	// wire behavior, adding Accept-Encoding explicitly where a case
	// wants it.
	req.Header.Set("Accept-Encoding", "identity")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, body
}

func bodyHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestHTTPContract is the route × condition matrix. The server is
// pre-warmed with ?wait=1 so table cases observe steady-state serving;
// the build-phase behavior (425) has its own test below.
func TestHTTPContract(t *testing.T) {
	_, ts := startTestServer(t, testConfig())

	// Pre-warm and capture reference validators + body hashes.
	type ref struct {
		etag, lastMod, hash string
		body                []byte
	}
	refs := make(map[string]ref)
	for _, p := range []string{"/v1/lists", "/v1/list/0", "/v1/churn/0/1", "/v1/dataset/0"} {
		resp, body := do(t, "GET", ts.URL+p+"?wait=1", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("warm %s: status %d: %.200s", p, resp.StatusCode, body)
		}
		refs[p] = ref{
			etag:    resp.Header.Get("ETag"),
			lastMod: resp.Header.Get("Last-Modified"),
			hash:    bodyHash(body),
			body:    body,
		}
		if refs[p].etag == "" || refs[p].lastMod == "" {
			t.Fatalf("warm %s: missing validators (ETag %q, Last-Modified %q)", p, refs[p].etag, refs[p].lastMod)
		}
	}

	cases := []struct {
		name       string
		method     string
		path       string
		hdr        func() map[string]string
		wantStatus int
		check      func(t *testing.T, resp *http.Response, body []byte)
	}{
		{
			name: "fresh list CSV", method: "GET", path: "/v1/list/0",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				r := refs["/v1/list/0"]
				if got := bodyHash(body); got != r.hash {
					t.Errorf("body hash %s, want %s", got, r.hash)
				}
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
					t.Errorf("Content-Type = %q", ct)
				}
				if cc := resp.Header.Get("Cache-Control"); cc != "max-age=300" {
					t.Errorf("Cache-Control = %q", cc)
				}
				if v := resp.Header.Get("Vary"); v != "Accept-Encoding" {
					t.Errorf("Vary = %q", v)
				}
				if et := resp.Header.Get("ETag"); et != r.etag {
					t.Errorf("ETag %q, want %q", et, r.etag)
				}
			},
		},
		{
			name: "fresh index JSON", method: "GET", path: "/v1/lists",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if got := bodyHash(body); got != refs["/v1/lists"].hash {
					t.Errorf("body hash changed across fetches")
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type = %q", ct)
				}
			},
		},
		{
			name: "conditional match answers 304 header-only", method: "GET", path: "/v1/list/0",
			hdr:        func() map[string]string { return map[string]string{"If-None-Match": refs["/v1/list/0"].etag} },
			wantStatus: 304,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if len(body) != 0 {
					t.Errorf("304 carried %d body bytes", len(body))
				}
				if et := resp.Header.Get("ETag"); et != refs["/v1/list/0"].etag {
					t.Errorf("304 ETag %q, want %q", et, refs["/v1/list/0"].etag)
				}
			},
		},
		{
			name: "conditional mismatch replays full 200", method: "GET", path: "/v1/list/0",
			hdr:        func() map[string]string { return map[string]string{"If-None-Match": `"stale-validator"`} },
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if got := bodyHash(body); got != refs["/v1/list/0"].hash {
					t.Errorf("conditional miss served different bytes")
				}
			},
		},
		{
			name: "If-Modified-Since match answers 304", method: "GET", path: "/v1/dataset/0",
			hdr:        func() map[string]string { return map[string]string{"If-Modified-Since": refs["/v1/dataset/0"].lastMod} },
			wantStatus: 304,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if len(body) != 0 {
					t.Errorf("304 carried %d body bytes", len(body))
				}
			},
		},
		{
			name: "ancient If-Modified-Since replays 200", method: "GET", path: "/v1/dataset/0",
			hdr: func() map[string]string {
				return map[string]string{"If-Modified-Since": "Mon, 02 Jan 2006 15:04:05 GMT"}
			},
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if got := bodyHash(body); got != refs["/v1/dataset/0"].hash {
					t.Errorf("dataset bytes changed")
				}
			},
		},
		{
			name: "gzip over threshold", method: "GET", path: "/v1/list/0",
			hdr:        func() map[string]string { return map[string]string{"Accept-Encoding": "gzip"} },
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
					t.Fatalf("Content-Encoding = %q, want gzip", ce)
				}
				r := refs["/v1/list/0"]
				wantETag := strings.TrimSuffix(r.etag, `"`) + `-gzip"`
				if et := resp.Header.Get("ETag"); et != wantETag {
					t.Errorf("gzip ETag %q, want %q", et, wantETag)
				}
				zr, err := gzip.NewReader(strings.NewReader(string(body)))
				if err != nil {
					t.Fatal(err)
				}
				plain, err := io.ReadAll(zr)
				if err != nil {
					t.Fatal(err)
				}
				if bodyHash(plain) != r.hash {
					t.Errorf("gunzipped bytes differ from identity representation")
				}
				if len(body) >= len(plain) {
					t.Errorf("gzip representation (%d) not smaller than identity (%d)", len(body), len(plain))
				}
			},
		},
		{
			name: "gzip variant revalidates with its own entity-tag", method: "GET", path: "/v1/list/0",
			hdr: func() map[string]string {
				return map[string]string{
					"Accept-Encoding": "gzip",
					"If-None-Match":   strings.TrimSuffix(refs["/v1/list/0"].etag, `"`) + `-gzip"`,
				}
			},
			wantStatus: 304,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if len(body) != 0 {
					t.Errorf("304 carried %d body bytes", len(body))
				}
			},
		},
		{
			name: "identity entity-tag does not validate the gzip variant", method: "GET", path: "/v1/list/0",
			hdr: func() map[string]string {
				return map[string]string{"Accept-Encoding": "gzip", "If-None-Match": refs["/v1/list/0"].etag}
			},
			wantStatus: 200,
			check:      func(t *testing.T, resp *http.Response, body []byte) {},
		},
		{
			name: "below-threshold body stays identity", method: "GET", path: "/v1/churn/0/1",
			hdr:        func() map[string]string { return map[string]string{"Accept-Encoding": "gzip"} },
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if ce := resp.Header.Get("Content-Encoding"); ce != "" {
					t.Errorf("Content-Encoding = %q for %d-byte body", ce, len(body))
				}
				if got := bodyHash(body); got != refs["/v1/churn/0/1"].hash {
					t.Errorf("churn bytes changed")
				}
			},
		},
		{
			name: "unknown week 404s", method: "GET", path: "/v1/list/99",
			wantStatus: 404, check: func(t *testing.T, resp *http.Response, body []byte) {},
		},
		{
			name: "unknown route 404s", method: "GET", path: "/v1/nope",
			wantStatus: 404, check: func(t *testing.T, resp *http.Response, body []byte) {},
		},
		{
			name: "unknown site 404s", method: "GET", path: "/v1/site/0/not-a-domain.example",
			wantStatus: 404, check: func(t *testing.T, resp *http.Response, body []byte) {},
		},
		{
			name: "POST is method-not-allowed", method: "POST", path: "/v1/lists",
			wantStatus: 405,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
					t.Errorf("Allow = %q, want GET advertised", allow)
				}
			},
		},
		{
			name: "DELETE is method-not-allowed", method: "DELETE", path: "/v1/dataset/0",
			wantStatus: 405, check: func(t *testing.T, resp *http.Response, body []byte) {},
		},
		{
			name: "health endpoint is uncacheable", method: "GET", path: "/healthz",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
					t.Errorf("Cache-Control = %q", cc)
				}
				if string(body) != "ok\n" {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name: "metrics serve prometheus exposition", method: "GET", path: "/metricz",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
					t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
				}
				if !strings.Contains(string(body), "http_requests_total{code=\"200\"}") {
					t.Errorf("metricz missing labeled request counter: %.300s", body)
				}
			},
		},
		{
			name: "metrics keep human rendering", method: "GET", path: "/metricz?format=text",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if !strings.Contains(string(body), "http.requests") {
					t.Errorf("text metricz missing request counter: %.200s", body)
				}
			},
		},
		{
			name: "tracez serves chrome trace events", method: "GET", path: "/debug/tracez",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				var doc struct {
					TraceEvents []struct {
						Ph   string `json:"ph"`
						Name string `json:"name"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Fatalf("tracez is not valid JSON: %v", err)
				}
				if len(doc.TraceEvents) == 0 {
					t.Fatal("tracez ring empty after prior requests")
				}
				for _, ev := range doc.TraceEvents {
					if ev.Ph != "X" {
						t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
					}
				}
			},
		},
		{
			name: "jobs reports completed builds", method: "GET", path: "/v1/jobs",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				s := string(body)
				for _, want := range []string{`"list/0"`, `"dataset/0?sites=4"`, `"snapshot/0"`, `"ready"`} {
					if !strings.Contains(s, want) {
						t.Errorf("jobs view missing %s: %s", want, s)
					}
				}
			},
		},
		{
			name: "HEAD serves headers without a body", method: "HEAD", path: "/v1/list/0",
			wantStatus: 200,
			check: func(t *testing.T, resp *http.Response, body []byte) {
				if len(body) != 0 {
					t.Errorf("HEAD carried %d body bytes", len(body))
				}
				if et := resp.Header.Get("ETag"); et != refs["/v1/list/0"].etag {
					t.Errorf("HEAD ETag %q, want %q", et, refs["/v1/list/0"].etag)
				}
			},
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hdr := map[string]string(nil)
			if c.hdr != nil {
				hdr = c.hdr()
			}
			resp, body := do(t, c.method, ts.URL+c.path, hdr)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d (body %.200s)", resp.StatusCode, c.wantStatus, body)
			}
			c.check(t, resp, body)
		})
	}
}

// TestNotReadyPhase pins the async build contract on a cold server: the
// first request for an expensive dataset answers 425 Too Early with
// Retry-After while the single-flight build runs, and polling converges
// to a 200 whose bytes match a ?wait=1 fetch.
func TestNotReadyPhase(t *testing.T) {
	_, ts := startTestServer(t, testConfig())

	resp, body := do(t, "GET", ts.URL+"/v1/dataset/0", nil)
	if resp.StatusCode != http.StatusTooEarly {
		t.Fatalf("cold dataset fetch: status %d, want 425 (body %.200s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("425 without Retry-After")
	}

	// The jobs view sees the build in flight or already done — never
	// absent.
	resp, body = do(t, "GET", ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"dataset/0?sites=4"`) {
		t.Errorf("jobs view missing in-flight dataset build: %d %.300s", resp.StatusCode, body)
	}

	// Poll as Retry-After instructs; the build must converge.
	var got []byte
	deadline := time.Now().Add(30 * time.Second) //detlint:allow walltime -- test poll deadline
	for {
		resp, body = do(t, "GET", ts.URL+"/v1/dataset/0", nil)
		if resp.StatusCode == 200 {
			got = body
			break
		}
		if resp.StatusCode != http.StatusTooEarly {
			t.Fatalf("poll: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) { //detlint:allow walltime -- test poll deadline
			t.Fatal("dataset build did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, want := do(t, "GET", ts.URL+"/v1/dataset/0?wait=1", nil)
	if bodyHash(got) != bodyHash(want) {
		t.Error("polled dataset differs from wait=1 dataset")
	}
}

// TestRateLimiting drives the token bucket dry with a fake clock and
// checks the 429 + Retry-After contract, bucket refill, and the health
// endpoint's exemption.
func TestRateLimiting(t *testing.T) {
	clock := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	cfg := testConfig()
	cfg.RatePerSec = 1
	cfg.Burst = 2
	cfg.Now = func() time.Time { return clock }
	_, ts := startTestServer(t, cfg)

	for i := 0; i < 2; i++ {
		resp, body := do(t, "GET", ts.URL+"/v1/lists", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("burst request %d: status %d (%.100s)", i, resp.StatusCode, body)
		}
	}
	resp, _ := do(t, "GET", ts.URL+"/v1/lists", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("dry bucket: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	// Health stays reachable while the API is throttled.
	if resp, _ := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("healthz throttled: %d", resp.StatusCode)
	}
	// One second later one token has accrued.
	clock = clock.Add(time.Second)
	if resp, _ := do(t, "GET", ts.URL+"/v1/lists", nil); resp.StatusCode != 200 {
		t.Errorf("post-refill request: status %d, want 200", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/lists", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second post-refill request: status %d, want 429", resp.StatusCode)
	}
}

// TestResponseBytesDeterministic rebuilds the same configuration in a
// fresh server — under a different GOMAXPROCS — and requires
// byte-identical bodies and validators for the same request sequence.
func TestResponseBytesDeterministic(t *testing.T) {
	paths := []string{"/v1/lists", "/v1/list/0", "/v1/list/1?top=5", "/v1/churn/0/1", "/v1/dataset/0", "/v1/site/0"}

	fetch := func(ts *httptest.Server, snapDomain string) map[string][2]string {
		out := make(map[string][2]string)
		for _, p := range paths {
			url := ts.URL + p
			if p == "/v1/site/0" {
				url += "/" + snapDomain
			}
			if strings.Contains(p, "?") {
				url += "&wait=1"
			} else {
				url += "?wait=1"
			}
			resp, body := do(t, "GET", url, nil)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d", p, resp.StatusCode)
			}
			out[p] = [2]string{bodyHash(body), resp.Header.Get("ETag")}
		}
		return out
	}
	// The per-site route needs a real domain; take it from the served
	// list so both servers resolve it identically.
	domainOf := func(ts *httptest.Server) string {
		_, body := do(t, "GET", ts.URL+"/v1/list/0?wait=1", nil)
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "#") || line == "" {
				continue
			}
			return strings.Split(line, ",")[1]
		}
		t.Fatal("empty list CSV")
		return ""
	}

	_, tsA := startTestServer(t, testConfig())
	domain := domainOf(tsA)
	got := fetch(tsA, domain)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	_, tsB := startTestServer(t, testConfig())
	if d := domainOf(tsB); d != domain {
		t.Fatalf("rank-1 domain differs across servers: %q vs %q", d, domain)
	}
	want := fetch(tsB, domain)

	for _, p := range paths {
		if got[p] != want[p] {
			t.Errorf("%s: (hash, etag) diverged across servers/GOMAXPROCS: %v vs %v", p, got[p], want[p])
		}
	}
}

// TestLoadGenerator runs a small seeded load against a live server and
// checks the smoke contract: only 2xx/304 statuses, a non-zero
// conditional hit ratio from the fleet's validator memory, and sane
// aggregates.
func TestLoadGenerator(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	rep, err := RunLoad(ts.URL, LoadConfig{
		Seed: 1, Requests: 400, Clients: 4, Week: 0,
		ListEvery: 50, DatasetEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Failures(); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 400 {
		t.Errorf("completed %d requests, want 400", rep.Requests)
	}
	if rep.Hits304 == 0 {
		t.Error("zipf revisits produced no 304s")
	}
	if rep.HitRatio <= 0 || rep.HitRatio >= 1 {
		t.Errorf("hit ratio = %v", rep.HitRatio)
	}
	if rep.P50ms <= 0 || rep.P99ms < rep.P50ms {
		t.Errorf("latency percentiles implausible: p50=%v p99=%v", rep.P50ms, rep.P99ms)
	}
	var byStatus int
	for _, sc := range rep.ByStatus {
		byStatus += sc.Count
	}
	if byStatus != rep.Requests {
		t.Errorf("status tally sums to %d, want the %d requests", byStatus, rep.Requests)
	}
	// The report renders without panicking and mentions the hit ratio.
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "conditional hit ratio") {
		t.Errorf("render output: %s", sb.String())
	}
}

// ---- strict Prometheus exposition checks ----

// promSampleRE is the v0.0.4 sample-line grammar: a metric name, an
// optional sorted label set with escaped quoted values, and a value.
var promSampleRE = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\\n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\\n])*")*\})? (\S+)$`)

type promSample struct {
	key   string // name + label block
	fam   string // family the sample belongs to (from its TYPE line)
	typ   string
	value float64
}

// parsePromPage validates a /metricz body line by line against the
// Prometheus text exposition format and returns every sample in order
// of appearance. Violations fail the test.
func parsePromPage(t *testing.T, body string) []promSample {
	t.Helper()
	var (
		samples  []promSample
		fam, typ string
		families []string
		seen     = map[string]bool{}
	)
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			if name, _, ok := strings.Cut(rest, " "); !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			fam, typ = fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", i+1, typ)
			}
			families = append(families, fam)
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment: %q", i+1, line)
		case line == "":
			t.Fatalf("line %d: blank line in exposition", i+1)
		default:
			m := promSampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: sample does not match grammar: %q", i+1, line)
			}
			name, labels, raw := m[1], m[2], m[3]
			if fam == "" {
				t.Fatalf("line %d: sample %q before any TYPE line", i+1, name)
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if typ == "histogram" && strings.HasSuffix(name, suf) {
					base = strings.TrimSuffix(name, suf)
				}
			}
			if base != fam {
				t.Fatalf("line %d: sample %q outside its family %q", i+1, name, fam)
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", i+1, raw, err)
			}
			key := name + labels
			if seen[key] {
				t.Fatalf("line %d: duplicate sample %q", i+1, key)
			}
			seen[key] = true
			samples = append(samples, promSample{key: key, fam: fam, typ: typ, value: v})
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	return samples
}

// scrapeSequence drives a fixed request sequence (including one
// deterministic rate-limit rejection) and returns the parsed /metricz
// scrape that follows it.
func scrapeSequence(t *testing.T) []promSample {
	t.Helper()
	clock := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	cfg := testConfig()
	cfg.RatePerSec = 1
	cfg.Burst = 1
	cfg.Now = func() time.Time { return clock }
	_, ts := startTestServer(t, cfg)

	for _, p := range []string{"/healthz", "/v1/lists", "/v1/lists", "/v1/list/0?wait=1&x=", "/nope"} {
		url := ts.URL + p
		if p == "/v1/list/0?wait=1&x=" {
			clock = clock.Add(time.Second) // refill one token for the blocking build
		}
		resp, _ := do(t, "GET", url, nil)
		_ = resp
	}
	resp, body := do(t, "GET", ts.URL+"/metricz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metricz: status %d", resp.StatusCode)
	}
	return parsePromPage(t, string(body))
}

// TestMetricsPrometheusGrammar scrapes a live server after a fixed
// request mix and requires a grammar-clean page carrying the request,
// rate-limit, cache, and latency series.
func TestMetricsPrometheusGrammar(t *testing.T) {
	samples := scrapeSequence(t)
	byKey := map[string]promSample{}
	for _, s := range samples {
		byKey[s.key] = s
	}
	for key, want := range map[string]float64{
		`http_requests_total{code="200"}`:           3, // healthz + first /v1/lists + list/0
		`http_requests_total{code="404"}`:           1,
		`http_requests_total{code="429"}`:           1,
		`http_ratelimited_total{route="/v1/lists"}`: 1,
	} {
		s, ok := byKey[key]
		if !ok {
			t.Errorf("scrape missing %s", key)
			continue
		}
		if s.typ != "counter" {
			t.Errorf("%s typed %q, want counter", key, s.typ)
		}
		if s.value != want {
			t.Errorf("%s = %v, want %v", key, s.value, want)
		}
	}
	lat, ok := byKey[`http_latency_ms_count{route="/v1/lists"}`]
	if !ok || lat.typ != "histogram" || lat.value != 2 {
		t.Errorf("latency histogram for /v1/lists = %+v (ok=%v), want count 2", lat, ok)
	}
}

// TestMetricsDeterministicAcrossGOMAXPROCS runs the same request
// sequence on two fresh servers — the second pinned to one P — and
// requires identical ordered counter/gauge series with identical
// values. Histogram samples are excluded: latency observations carry
// real serving time, and runstats buckets are observation-derived, so
// their le= boundaries legitimately differ between runs.
func TestMetricsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	stable := func(in []promSample) []promSample {
		var out []promSample
		for _, s := range in {
			if s.typ != "histogram" {
				out = append(out, s)
			}
		}
		return out
	}
	got := stable(scrapeSequence(t))

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want := stable(scrapeSequence(t))

	if len(got) != len(want) {
		t.Fatalf("sample counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key {
			t.Fatalf("sample %d key diverged: %q vs %q", i, got[i].key, want[i].key)
		}
		if got[i].typ == "counter" && got[i].value != want[i].value {
			t.Errorf("%s: counter diverged: %v vs %v", got[i].key, got[i].value, want[i].value)
		}
	}
}
