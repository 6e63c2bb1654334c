package hisparserve

// One record per request: the metrics at /metricz and the spans at
// /debug/tracez are two views of the same request records, so
// recomputing the metrics from the spans must give them back exactly.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detrand"
)

// serve sends one request through the server's full handler.
func serve(s *Server, method, target string, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, target, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// promValues scrapes /metricz and indexes its samples by series.
func promValues(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	w := serve(s, "GET", "/metricz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metricz: status %d", w.Code)
	}
	out := make(map[string]float64)
	for _, sm := range parsePromPage(t, w.Body.String()) {
		out[sm.key] = sm.value
	}
	return out
}

// traceEvent is one /debug/tracez span as the Chrome JSON carries it.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Args map[string]string `json:"args"`
}

func traceEvents(t *testing.T, s *Server) []traceEvent {
	t.Helper()
	w := serve(s, "GET", "/debug/tracez", nil)
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("tracez: %v", err)
	}
	return doc.TraceEvents
}

// TestMetricsMatchTrace drives a seeded request mix through a
// rate-limited server whose ring holds every request, then recomputes
// the per-code request counts, the per-route latency and rate-limit
// counts and the bytes total from /debug/tracez: each must equal
// /metricz. http.revalidated must equal the 304s, and http.gzip the
// gzip responses the client saw.
func TestMetricsMatchTrace(t *testing.T) {
	const n = 600
	clock := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	cfg := testConfig()
	cfg.RatePerSec, cfg.Burst = 1, 3
	cfg.Now = func() time.Time { return clock }
	cfg.TraceSpans = n + 1
	s := New(cfg)
	t.Cleanup(func() { s.builds.Wait() })

	// A cold dataset request answers 425 while its build runs.
	seen := map[int]int{}
	gzipped := 0
	if w := serve(s, "GET", "/v1/dataset/0", nil); w.Code != http.StatusTooEarly {
		t.Fatalf("cold dataset: status %d, want 425", w.Code)
	}
	seen[http.StatusTooEarly]++
	s.builds.Wait()
	clock = clock.Add(time.Hour) // a full bucket

	snap, err := s.getSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := detrand.New(11)
	etags := map[string]string{}
	for i := 1; i < n; i++ {
		if rng.Intn(3) > 0 {
			clock = clock.Add(time.Second) // one more token
		}
		var method, target string
		switch rng.Intn(6) {
		case 0:
			method, target = "GET", "/v1/list/0?wait=1"
		case 1:
			method, target = "GET", "/v1/site/0/"+snap.list.Sets[rng.Intn(len(snap.list.Sets))].Domain
		case 2:
			method, target = "GET", "/nope/"+strconv.Itoa(i)
		case 3:
			method, target = "POST", "/v1/lists"
		case 4:
			method, target = "GET", "/v1/dataset/1"
		default:
			method, target = "GET", "/healthz"
		}
		hdr := map[string]string{}
		if rng.Intn(2) == 0 {
			hdr["Accept-Encoding"] = "gzip"
		}
		key := target + hdr["Accept-Encoding"]
		if etag, ok := etags[key]; ok && rng.Intn(4) > 0 {
			hdr["If-None-Match"] = etag
		}
		w := serve(s, method, target, hdr)
		seen[w.Code]++
		if w.Header().Get("Content-Encoding") == "gzip" {
			gzipped++
		}
		if etag := w.Header().Get("ETag"); etag != "" {
			etags[key] = etag
		}
	}
	s.builds.Wait()
	for _, code := range []int{200, 304, 404, 405, 425, 429} {
		if seen[code] == 0 {
			t.Errorf("the mix never saw a %d: %v", code, seen)
		}
	}
	if gzipped == 0 || gzipped == seen[200] {
		t.Errorf("%d gzip responses of %d 200s: the mix needs both encodings", gzipped, seen[200])
	}

	metrics := promValues(t, s)
	events := traceEvents(t, s)
	if len(events) != n+1 {
		t.Fatalf("tracez holds %d spans, want the %d requests and the /metricz scrape", len(events), n+1)
	}
	codes := map[string]float64{}
	latency := map[string]float64{}
	limited := map[string]float64{}
	var bytes float64
	for _, ev := range events {
		if ev.Name == "GET /metricz" {
			continue // served after the scrape it returned
		}
		if ev.Cat != "http" {
			t.Fatalf("span %q has category %q", ev.Name, ev.Cat)
		}
		code, route := ev.Args["code"], ev.Args["route"]
		b, err := strconv.ParseFloat(ev.Args["bytes"], 64)
		if err != nil {
			t.Fatalf("span %q: bytes %q", ev.Name, ev.Args["bytes"])
		}
		codes[code]++
		latency[route]++
		if code == "429" {
			limited[route]++
		}
		bytes += b
	}
	for code, c := range codes {
		if float64(seen[atoi(t, code)]) != c {
			t.Errorf("code %s: %v spans, %d responses", code, c, seen[atoi(t, code)])
		}
	}
	check := func(series string, want float64) {
		t.Helper()
		if got := metrics[series]; got != want {
			t.Errorf("%s = %v, recomputed from the trace %v", series, got, want)
		}
	}
	for code, c := range codes {
		check(`http_requests_total{code="`+code+`"}`, c)
	}
	for route, c := range latency {
		check(`http_latency_ms_count{route="`+route+`"}`, c)
	}
	for route, c := range limited {
		check(`http_ratelimited_total{route="`+route+`"}`, c)
	}
	check("http_bytes_out_total", bytes)
	check("http_revalidated_total", codes["304"])
	check("http_gzip_total", float64(gzipped))
	// ...and /metricz holds no series the trace has no request for.
	for prefix, want := range map[string]int{
		"http_requests_total{": len(codes), "http_latency_ms_count{": len(latency), "http_ratelimited_total{": len(limited),
	} {
		got := 0
		for key := range metrics {
			if strings.HasPrefix(key, prefix) {
				got++
			}
		}
		if got != want {
			t.Errorf("%d %s… series in /metricz, %d in the trace", got, prefix, want)
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCountsExactUnderConcurrency sends 8 × 2,000 requests from
// concurrent goroutines: every counter and histogram count must equal
// the requests sent, exactly.
func TestCountsExactUnderConcurrency(t *testing.T) {
	const goroutines, each = 8, 2000
	s := New(testConfig())
	t.Cleanup(func() { s.builds.Wait() })
	if w := serve(s, "GET", "/v1/list/0?wait=1", nil); w.Code != http.StatusOK {
		t.Fatalf("list: status %d", w.Code)
	}
	etag := serve(s, "GET", "/v1/lists", nil).Header().Get("ETag")
	base := s.Stats().Snapshot()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch i % 4 {
				case 0:
					serve(s, "GET", "/v1/lists", map[string]string{"If-None-Match": etag})
				case 1:
					serve(s, "GET", "/v1/list/0", map[string]string{"Accept-Encoding": "gzip"})
				case 2:
					serve(s, "GET", "/healthz", nil)
				default:
					serve(s, "GET", "/nope/"+strconv.Itoa(g), nil)
				}
			}
		}(g)
	}
	wg.Wait()

	snap := s.Stats().Snapshot()
	const quarter = goroutines * each / 4
	for series, want := range map[string]int64{
		`http.requests{code="200"}`: 2 * quarter,
		`http.requests{code="304"}`: quarter,
		`http.requests{code="404"}`: quarter,
		"http.revalidated":          quarter,
		"http.gzip":                 quarter,
	} {
		if got := snap.Counters[series] - base.Counters[series]; got != want {
			t.Errorf("%s grew by %d, want %d", series, got, want)
		}
	}
	for route, want := range map[string]int64{
		"/v1/lists": quarter, "/v1/list": quarter, "/healthz": quarter, "unmatched": quarter,
	} {
		key := `http.latency_ms{route="` + route + `"}`
		if got := snap.Histograms[key].Count - base.Histograms[key].Count; got != want {
			t.Errorf("%s count grew by %d, want %d", key, got, want)
		}
	}
	if got := s.requests.Total(); got != 2+goroutines*each {
		t.Errorf("ring took %d records, want %d", got, 2+goroutines*each)
	}
}

// TestRouteLabelsBounded: requests to paths no route serves, or to
// routes with ever-new path values, add at most one series: route
// labels come from the route table, not from the path.
func TestRouteLabelsBounded(t *testing.T) {
	s := New(testConfig())
	t.Cleanup(func() { s.builds.Wait() })
	// Every route the mix reaches, and every status it gets, once.
	serve(s, "GET", "/v1/site/0/warm.example", nil)
	serve(s, "GET", "/v1/list/99", nil)
	serve(s, "GET", "/v1/list/0?wait=1", nil)
	serve(s, "GET", "/v1/list/1?wait=1", nil)
	series := func() int {
		snap := s.Stats().Snapshot()
		return len(snap.Counters) + len(snap.Histograms)
	}
	before := series()
	for i := 0; i < 1000; i++ {
		for _, p := range []string{"/nope/%d", "/v1/x%d", "/v1/site/0/d%d.example", "/v1/list/%d"} {
			serve(s, "GET", fmt.Sprintf(p, i), nil)
		}
	}
	if grew := series() - before; grew > 1 {
		t.Errorf("4,000 requests to new paths added %d series, want at most 1", grew)
	}
}
