package hisparserve

// The server's fixed route table and its one router. New keeps the
// table's entries the config enables; each request is matched against
// them once, and the match both dispatches the request and labels its
// series, so the label set is the table plus one value for requests no
// route serves: a client cannot grow it. A request no route serves is
// refused with the exchange net/http's mux gives for the same patterns:
// the router matches as the mux does, and the differential test in
// routes_test.go holds the two to the same bytes.

import (
	"net/http"
	"net/http/pprof"
	"net/url"
	"path"
	"strings"

	"repro/internal/runstats"
)

// route is one entry of the route table.
type route struct {
	pattern string // net/http mux path pattern, served for GET (and so HEAD)
	handle  func(s *Server, w http.ResponseWriter, r *http.Request, v pathValues)
	pprof   bool // served only with Config.EnablePprof
	series  *routeSeries

	// The pattern compiled: its segments, "" standing for a wildcard,
	// and whether a trailing slash makes it match the whole subtree
	// under them.
	segs    []string
	subtree bool
}

// pathValues are a matched route's wildcard values, unescaped, in
// pattern order.
type pathValues [2]string

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

// unmatchedRoute labels every request no route serves or refuses the
// method of: not found, redirected, or malformed.
var unmatchedRoute = newRoute("unmatched", nil, false)

// routeTable is every route the server can serve. A subtree pattern
// (trailing slash) follows the more specific patterns under it, which
// the mux prefers; the router takes the first entry that matches.
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

// maxSegments is the most segments a pattern has; splitPath keeps one
// more, which only a subtree pattern can match.
const maxSegments = 4

func newRoute(pattern string, handle func(*Server, http.ResponseWriter, *http.Request, pathValues), debug bool) *route {
	label := pattern
	if i := strings.Index(pattern, "/{"); i >= 0 {
		label = pattern[:i]
	}
	l := runstats.Label{Key: "route", Value: label}
	rt := &route{pattern: pattern, handle: handle, pprof: debug, series: &routeSeries{
		label:   label,
		latency: runstats.NewHistogram("http.latency_ms", l),
		limited: runstats.NewCounter("http.ratelimited", l),
	}}
	if handle == nil {
		return rt // unmatchedRoute: labels only
	}
	p, wildcards := strings.TrimPrefix(pattern, "/"), 0
	if rt.subtree = strings.HasSuffix(p, "/"); rt.subtree {
		p = p[:len(p)-1]
	}
	for _, seg := range strings.Split(p, "/") {
		if strings.HasPrefix(seg, "{") {
			seg, wildcards = "", wildcards+1
		}
		rt.segs = append(rt.segs, seg)
	}
	if len(rt.segs) > maxSegments || wildcards > len(pathValues{}) {
		panic("hisparserve: route " + pattern + " is longer than the router splits")
	}
	return rt
}

func serverless(h http.HandlerFunc) func(*Server, http.ResponseWriter, *http.Request, pathValues) {
	return func(_ *Server, w http.ResponseWriter, r *http.Request, _ pathValues) { h(w, r) }
}

// match is the router's answer for one request: the route to dispatch
// it to, or the refusal to write.
type match struct {
	route    *route // labels the request; serves it when status is 0
	values   pathValues
	status   int    // 0, or the refusal's status
	location string // a 301's target
}

// match routes a request by the net/http mux's rules for the route
// table:
//   - a request-target of "*" is a 400;
//   - matching runs on the escaped path, cleaned (but not for CONNECT),
//     split into segments that are each unescaped, so /v1/site/0/a%2Fb
//     names the domain "a/b";
//   - a GET whose path matches nothing, but whose path with a slash
//     appended is exactly a subtree pattern, is redirected there;
//   - a path cleaning changed is redirected to its clean form;
//   - a GET or HEAD of a matched path is dispatched;
//   - any other method on a path that, or whose slashed form, matches a
//     route is a 405, and anything else a 404.
//
// The route that serves a request or refuses its method labels it;
// every other request is unmatchedRoute.
func (s *Server) match(r *http.Request) match {
	if r.RequestURI == "*" {
		return match{route: unmatchedRoute, status: http.StatusBadRequest}
	}
	escaped := r.URL.EscapedPath()
	p := escaped
	if r.Method != http.MethodConnect {
		p = cleanPath(p)
	}
	segs := splitPath(p)
	rt, v := s.lookup(&segs)
	var slashed *route // the route p+"/" matches, when p matches none
	if rt == nil && !strings.HasSuffix(p, "/") && segs.n < len(segs.s) {
		segs.s[segs.n], segs.n = "/", segs.n+1
		slashed, _ = s.lookup(&segs)
	}
	get := r.Method == http.MethodGet || r.Method == http.MethodHead
	switch {
	case get && slashed != nil:
		// p has no route, so slashed is a subtree pattern with exactly
		// p's segments: p+"/" is that pattern's own path.
		u := &url.URL{Path: cleanPath(r.URL.Path) + "/", RawQuery: r.URL.RawQuery}
		return match{route: unmatchedRoute, status: http.StatusMovedPermanently, location: u.String()}
	case p != escaped:
		u := &url.URL{Path: p, RawQuery: r.URL.RawQuery}
		return match{route: unmatchedRoute, status: http.StatusMovedPermanently, location: u.String()}
	case rt != nil && get:
		return match{route: rt, values: v}
	case rt != nil:
		return match{route: rt, status: http.StatusMethodNotAllowed}
	case slashed != nil:
		return match{route: unmatchedRoute, status: http.StatusMethodNotAllowed}
	}
	return match{route: unmatchedRoute, status: http.StatusNotFound}
}

// refuse writes a match's refusal with the bytes the net/http mux
// writes for it. Every route serves GET alone, so a 405 allows GET and HEAD.
func (m *match) refuse(w http.ResponseWriter, r *http.Request) {
	switch m.status {
	case http.StatusBadRequest:
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
	case http.StatusMovedPermanently:
		http.Redirect(w, r, m.location, http.StatusMovedPermanently)
	case http.StatusMethodNotAllowed:
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	default:
		http.NotFound(w, r)
	}
}

// lookup returns the first route of the server's table that matches
// segs, whatever the method, and its wildcard values; or nil.
func (s *Server) lookup(segs *segments) (*route, pathValues) {
	for _, rt := range s.routes {
		if v, ok := rt.match(segs); ok {
			return rt, v
		}
	}
	return nil, pathValues{}
}

// match reports whether segs match the route's pattern, with the
// wildcard values. A literal must equal its segment; a wildcard takes
// any segment but the trailing slash; a subtree pattern takes any
// non-empty rest, a trailing slash included.
func (rt *route) match(segs *segments) (v pathValues, ok bool) {
	if segs.n < len(rt.segs) || rt.subtree != (segs.n > len(rt.segs)) {
		return v, false
	}
	w := 0
	for i, want := range rt.segs {
		got := segs.s[i]
		switch {
		case want != "":
			if got != want {
				return v, false
			}
		case got == "/":
			return v, false
		default:
			v[w], w = got, w+1
		}
	}
	return v, true
}

// segments is a path split as the net/http mux splits it: each segment
// unescaped, and a trailing slash its own segment "/". Only the first
// len(s) are kept; n counts them up to that.
type segments struct {
	n int
	s [maxSegments + 1]string
}

// splitPath splits a path, which starts with a slash, into segments.
func splitPath(p string) (segs segments) {
	escaped := strings.IndexByte(p, '%') >= 0
	for p != "" && segs.n < len(segs.s) {
		seg := "/"
		if p == "/" {
			p = ""
		} else {
			p = p[1:]
			i := strings.IndexByte(p, '/')
			if i < 0 {
				i = len(p)
			}
			seg, p = p[:i], p[i:]
			if escaped {
				if u, err := url.PathUnescape(seg); err == nil {
					seg = u
				}
			}
		}
		segs.s[segs.n], segs.n = seg, segs.n+1
	}
	return segs
}

// cleanPath is the form the net/http mux redirects a path to:
// path.Clean, with a leading slash added and a trailing one kept.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		if len(p) == len(np)+1 && strings.HasPrefix(p, np) {
			return p
		}
		np += "/"
	}
	return np
}
