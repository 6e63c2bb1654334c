package hisparserve

// What stands in front of the route handlers: serveHTTP, the server's
// one handler. It keeps one record per request, committed into runstats
// and kept in the trace ring; applies a token-bucket rate limiter to
// the /v1/ API surface; and dispatches through the router (routes.go),
// whose match also names the route that labels the record. Gzip is not
// a wrapping middleware here — payloads are built once and compressed
// once at build time (see payload), so the serving path only selects a
// representation.

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runstats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// tokenBucket is a concurrency-safe token-bucket rate limiter with an
// injectable clock (tests drive it with a fake clock; production uses
// vclock.Wall).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: now}
}

// allow consumes one token if available; otherwise it reports how long
// until the next token accrues (the Retry-After hint).
func (tb *tokenBucket) allow() (bool, time.Duration) {
	if tb.rate <= 0 {
		return true, 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
	return false, wait
}

// reqRecord is everything the server keeps of one request. The
// middleware fills it as the request is served and commits it once:
// its metrics into runstats under one lock, the record itself into the
// trace ring, from which /debug/tracez builds the request's span. So
// /metricz and /debug/tracez cannot disagree.
type reqRecord struct {
	start        time.Time
	dur          time.Duration
	method, path string
	route        *routeSeries // the route the router matched, or unmatchedRoute's
	status       int
	bytes        int64 // body bytes written
	revalidated  bool  // answered 304 from a payload's validators
	gzip         bool  // served a payload's gzip representation
	limited      bool  // refused by the rate limiter
}

// recorder is the server handler's response writer: it passes the
// response through and notes its status and body bytes on the
// request's record. Recorders are pooled per server: a handler's use of
// one ends when it returns, and the record is committed by value.
type recorder struct {
	http.ResponseWriter
	rec reqRecord
}

func (rw *recorder) WriteHeader(code int) {
	if rw.rec.status == 0 {
		rw.rec.status = code
	}
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recorder) Write(p []byte) (int, error) {
	if rw.rec.status == 0 {
		rw.rec.status = http.StatusOK
	}
	n, err := rw.ResponseWriter.Write(p)
	rw.rec.bytes += int64(n)
	return n, err
}

// recordOf returns the record of the request w answers. Every handler
// is reached through serveHTTP, so w is its recorder.
func recordOf(w http.ResponseWriter) *reqRecord {
	return &w.(*recorder).rec
}

// serveHTTP is the server's handler: it opens the request's record,
// matches the request against the route table, applies the rate
// limiter to /v1/ paths (health and metrics stay reachable when the
// bucket is dry), dispatches the request or refuses it, and commits
// the record.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	start := vclock.Wall() // sanctioned telemetry clock: serving-side latency, not a measurement artifact
	m := s.match(r)
	rw := s.recorders.Get().(*recorder)
	*rw = recorder{ResponseWriter: w, rec: reqRecord{
		start:  start,
		method: r.Method,
		path:   r.URL.Path,
		route:  m.route.series,
	}}
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/") && !s.allow(rw):
		// refused: 429
	case m.status == 0:
		m.route.handle(s, rw, r, m.values)
	default:
		m.refuse(rw, r)
	}
	s.commit(&rw.rec)
	*rw = recorder{} // drop the request's references before reuse
	s.recorders.Put(rw)
}

// allow takes a rate-limit token for a request, or refuses it 429 with
// a Retry-After hint and reports that it did not.
func (s *Server) allow(rw *recorder) bool {
	ok, wait := s.limiter.allow()
	if !ok {
		rw.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
		http.Error(rw, "rate limited", http.StatusTooManyRequests)
		rw.rec.limited = true
	}
	return ok
}

// Unlabeled series the commit updates.
var (
	bytesOutSeries    = runstats.NewCounter("http.bytes_out")
	revalidatedSeries = runstats.NewCounter("http.revalidated")
	gzipSeries        = runstats.NewCounter("http.gzip")
)

// commit records a finished request: its metrics in one runstats
// Commit, then the record into the trace ring. Serving spans carry
// wall-clock timestamps (vclock.Wall) — they are a live diagnostic view
// of this server, not a deterministic artifact.
func (s *Server) commit(rec *reqRecord) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	rec.dur = vclock.WallSince(rec.start)
	ups := append(make([]runstats.Update, 0, 6),
		runstats.Update{Series: requestSeries(rec.status), Delta: 1},
		runstats.Update{Series: bytesOutSeries, Delta: rec.bytes},
		runstats.Update{Series: rec.route.latency, Sample: float64(rec.dur.Microseconds()) / 1000})
	if rec.revalidated {
		ups = append(ups, runstats.Update{Series: revalidatedSeries, Delta: 1})
	}
	if rec.gzip {
		ups = append(ups, runstats.Update{Series: gzipSeries, Delta: 1})
	}
	if rec.limited {
		ups = append(ups, runstats.Update{Series: rec.route.limited, Delta: 1})
	}
	s.stats.Commit(ups...)
	s.requests.Record(*rec)
}

// codeSeries holds http.requests{code} for every status net/http can
// write (100–999), each resolved on its first use.
var codeSeries [1000]atomic.Pointer[runstats.Series]

// requestSeries returns the http.requests series of a status code.
func requestSeries(code int) *runstats.Series {
	if code < 0 || code >= len(codeSeries) {
		return newCodeSeries(code)
	}
	if sr := codeSeries[code].Load(); sr != nil {
		return sr
	}
	codeSeries[code].CompareAndSwap(nil, newCodeSeries(code))
	return codeSeries[code].Load()
}

func newCodeSeries(code int) *runstats.Series {
	return runstats.NewCounter("http.requests", runstats.Label{Key: "code", Value: strconv.Itoa(code)})
}

// requestSpans builds the retained requests' spans, oldest first.
func (s *Server) requestSpans() []trace.Span {
	entries := s.requests.Snapshot()
	spans := make([]trace.Span, len(entries))
	for i, e := range entries {
		rec := &e.Val
		spans[i] = trace.Span{
			ID:    trace.DeriveID("req", strconv.FormatUint(e.Seq, 10)),
			Name:  rec.method + " " + rec.path,
			Cat:   "http",
			Start: rec.start,
			Dur:   rec.dur,
			Attrs: []trace.Attr{
				{Key: "code", Val: strconv.Itoa(rec.status)},
				{Key: "route", Val: rec.route.label},
				{Key: "bytes", Val: strconv.FormatInt(rec.bytes, 10)},
			},
		}
	}
	return spans
}
