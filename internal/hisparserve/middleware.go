package hisparserve

// The middleware stack in front of the route handlers: request logging
// into runstats, and a token-bucket rate limiter for the /v1/ API
// surface. Gzip is not a wrapping middleware here — payloads are built
// once and compressed once at build time (see payload), so the serving
// path only selects a representation.

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

// statusWriter records the status code and body bytes a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// withMiddleware wraps the route mux with rate limiting (API routes
// only; health and metrics stay reachable when the bucket is dry) and
// request logging into the server's runstats set.
func (s *Server) withMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := vclock.Wall() // sanctioned telemetry clock: serving-side latency, not a measurement artifact
		sw := &statusWriter{ResponseWriter: w}
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			if ok, wait := s.limiter.allow(); !ok {
				sw.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
				http.Error(sw, "rate limited", http.StatusTooManyRequests)
				s.stats.IncL("http.ratelimited", 1, runstats.Label{Key: "route", Value: routeLabel(r.URL.Path)})
				s.logRequest(r, sw, start)
				return
			}
		}
		next.ServeHTTP(sw, r)
		s.logRequest(r, sw, start)
	})
}

// logRequest records the finished request into the labeled metrics
// registry and, when a trace ring is installed, as a serving-side span.
// Serving spans carry wall-clock timestamps (vclock.Wall) — they are a
// live diagnostic view of this server, not a deterministic artifact.
func (s *Server) logRequest(r *http.Request, sw *statusWriter, start time.Time) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	code := strconv.Itoa(sw.status)
	route := routeLabel(r.URL.Path)
	elapsed := vclock.WallSince(start)
	s.stats.IncL("http.requests", 1, runstats.Label{Key: "code", Value: code})
	s.stats.Inc("http.bytes_out", sw.bytes)
	s.stats.ObserveL("http.latency_ms", float64(elapsed.Microseconds())/1000,
		runstats.Label{Key: "route", Value: route})
	if s.spans != nil {
		seq := atomic.AddUint64(&s.reqSeq, 1)
		s.spans.Record(trace.Span{
			ID:    trace.DeriveID("req", strconv.FormatUint(seq, 10)),
			Name:  r.Method + " " + r.URL.Path,
			Cat:   "http",
			Start: start,
			Dur:   elapsed,
			Attrs: []trace.Attr{
				{Key: "code", Val: code},
				{Key: "route", Val: route},
				{Key: "bytes", Val: strconv.FormatInt(sw.bytes, 10)},
			},
		})
	}
}

// routeLabel collapses a request path to its route family so labeled
// series stay low-cardinality (paths embed weeks and domains).
func routeLabel(path string) string {
	if !strings.HasPrefix(path, "/v1/") {
		return path // fixed set: /healthz, /metricz, /debug/...
	}
	rest := path[len("/v1/"):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return "/v1/" + rest
}
