package hisparserve

// The server's fixed route table. New registers every entry with the
// mux, and each request's series are labeled with the entry its path
// matches, so the label set is the table plus one value for paths that
// match no route: a client cannot grow it.

import (
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"

	"repro/internal/runstats"
)

// route is one entry of the route table.
type route struct {
	pattern string // ServeMux path pattern, registered for GET (and so HEAD)
	handle  func(s *Server, w http.ResponseWriter, r *http.Request)
	pprof   bool // registered only with Config.EnablePprof
	series  *routeSeries
}

// routeSeries is what a request record keeps of its route. It is apart
// from route so that the records, kept in a generic ring, reach no
// handler type: the linker keeps every method of a type a generic
// dictionary reaches, and through *Server that would be all of
// *http.Server's, TLS included.
type routeSeries struct {
	// label is the pattern up to its first wildcard segment ("/v1/site"
	// for "/v1/site/{week}/{domain}"); it labels the route's series.
	label            string
	latency, limited *runstats.Series
}

// unmatchedRoute labels every request whose path matches no route.
var unmatchedRoute = newRoute("unmatched", nil, false)

// routeTable is every route the server can serve. A subtree pattern
// (trailing slash) follows the more specific patterns under it, which
// the mux prefers.
var routeTable = []*route{
	newRoute("/healthz", (*Server).handleHealth, false),
	newRoute("/metricz", (*Server).handleMetrics, false),
	newRoute("/debug/tracez", (*Server).handleTrace, false),
	newRoute("/debug/pprof/cmdline", serverless(pprof.Cmdline), true),
	newRoute("/debug/pprof/profile", serverless(pprof.Profile), true),
	newRoute("/debug/pprof/symbol", serverless(pprof.Symbol), true),
	newRoute("/debug/pprof/trace", serverless(pprof.Trace), true),
	newRoute("/debug/pprof/", serverless(pprof.Index), true),
	newRoute("/v1/lists", (*Server).handleIndex, false),
	newRoute("/v1/jobs", (*Server).handleJobs, false),
	newRoute("/v1/list/{week}", (*Server).handleList, false),
	newRoute("/v1/site/{week}/{domain}", (*Server).handleSite, false),
	newRoute("/v1/churn/{a}/{b}", (*Server).handleChurn, false),
	newRoute("/v1/dataset/{week}", (*Server).handleDataset, false),
}

func newRoute(pattern string, handle func(*Server, http.ResponseWriter, *http.Request), debug bool) *route {
	label := pattern
	if i := strings.Index(pattern, "/{"); i >= 0 {
		label = pattern[:i]
	}
	l := runstats.Label{Key: "route", Value: label}
	return &route{pattern: pattern, handle: handle, pprof: debug, series: &routeSeries{
		label:   label,
		latency: runstats.NewHistogram("http.latency_ms", l),
		limited: runstats.NewCounter("http.ratelimited", l),
	}}
}

func serverless(h http.HandlerFunc) func(*Server, http.ResponseWriter, *http.Request) {
	return func(_ *Server, w http.ResponseWriter, r *http.Request) { h(w, r) }
}

// routeOf returns the route a request URL's path matches, by the mux's
// rules for these patterns, whatever the method; or unmatchedRoute. The
// mux names the route of every request it dispatches; this names it for
// the rest: rate-limited requests, and those the mux refuses (404, 405,
// redirects).
func (s *Server) routeOf(u *url.URL) *route {
	path := u.Path
	if u.RawPath != "" {
		path = u.EscapedPath() // the mux matches escaped segments
	}
	for _, rt := range s.routes {
		if matchPattern(rt.pattern, path) {
			return rt
		}
	}
	return unmatchedRoute
}

// matchPattern reports whether path matches a ServeMux path pattern made
// of literal segments, single-segment {wildcards} and an optional
// trailing slash, which matches the whole subtree.
func matchPattern(pattern, path string) bool {
	for {
		switch {
		case pattern == "/":
			return strings.HasPrefix(path, "/")
		case pattern == "":
			return path == ""
		case !strings.HasPrefix(path, "/"):
			return false
		}
		var want, got string
		want, pattern = cutSegment(pattern[1:])
		got, path = cutSegment(path[1:])
		if strings.HasPrefix(want, "{") {
			if got == "" {
				return false
			}
		} else if got != want {
			return false
		}
	}
}

// cutSegment splits p at its first slash: the segment before it, and the
// rest from the slash on ("" if there is none).
func cutSegment(p string) (seg, rest string) {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:]
	}
	return p, ""
}
