package hisparserve

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// routeMethods and routePaths are the exchanges the differential test
// checks, each method with each path, and the fuzz target's seeds.
var (
	routeMethods = []string{"GET", "HEAD", "POST", "DELETE", "OPTIONS"}
	routePaths   = []string{
		"/", "/healthz", "/healthz/", "/metricz", "/debug/tracez", "/debug/pprof/",
		"/debug/pprof/heap", "/debug/pprof/cmdline", "/debug/pprof/a/b", "/debug/pprof",
		"/v1/lists", "/v1/lists/", "/v1/jobs", "/v1/list/0", "/v1/list/0/", "/v1/list/",
		"/v1/list", "/v1/site/0/a.example", "/v1/site/0/a%2Fb", "/v1/site/0", "/v1/site/0/a/b",
		"/v1/churn/0/1", "/v1/churn/0", "/v1/dataset/3", "/v1/nope", "/nope/1",
		"//v1/list/0", "/v1/./lists", "/v1/list/0/..", "*",
		"//v1/list/0?wait=1", "/debug/pprof?debug=1", "/debug//pprof", "/debug/%70prof",
		"/v1/%6Cists", "/v1/site/0/%2F", "/v1/site/%30/a%20b", "/v1/list/0%2F",
		"/v1/site/0/x/../y", "http://example.com/v1/lists",
		"/v1/site/0/a/../b", "//v1/lists", "/v1/lists/.", "/V1/lists", "/v1/site/0/~a",
		"/v1/site/0/a;b", "/v1/site/0/...", "/v1/lists/..", "/v1/site/0/a-b_c.d",
	}
)

// refMux is ServeMux with the route table registered as New registers
// it, each route answering with a stub that notes the pattern it was
// dispatched to: the exchanges the router must reproduce.
func refMux(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		if !rt.pprof || pprofOn {
			pattern := rt.pattern
			mux.HandleFunc("GET "+pattern, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Pattern", pattern)
			})
		}
	}
	return mux
}

// readRequest parses one request line the way the server parses it off
// the wire; ok is false for a request the server would reject.
func readRequest(method, target string) (*http.Request, bool) {
	r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(
		method + " " + target + " HTTP/1.1\r\nHost: hisparserve\r\n\r\n")))
	return r, err == nil
}

// routeExchange is what a request's routing shows: the response a
// refusal writes, and for a dispatched request its route's label and
// wildcard values.
type routeExchange struct {
	status int
	header http.Header
	body   string
	label  string
	values pathValues
}

// routerExchange routes a request through the server's router.
func routerExchange(s *Server, r *http.Request) routeExchange {
	w := httptest.NewRecorder()
	m := s.match(r)
	ex := routeExchange{label: m.route.series.label}
	if m.status == 0 {
		ex.values = m.values
	} else {
		m.refuse(w, r)
	}
	ex.status, ex.header, ex.body = w.Code, w.Header(), w.Body.String()
	return ex
}

// muxExchange routes a request through the reference mux. A request it
// dispatches is labeled with its route and carries its PathValues; a
// 405 is labeled with the route a GET of the same request dispatches
// to; any other refusal is unmatched.
func muxExchange(mux *http.ServeMux, r *http.Request) routeExchange {
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, r)
	ex := routeExchange{label: unmatchedRoute.series.label}
	pattern := w.Header().Get("X-Pattern")
	w.Header().Del("X-Pattern")
	if w.Code == http.StatusMethodNotAllowed {
		get := r.Clone(r.Context())
		get.Method = http.MethodGet
		gw := httptest.NewRecorder()
		mux.ServeHTTP(gw, get)
		pattern = gw.Header().Get("X-Pattern")
	}
	for _, rt := range routeTable {
		if rt.pattern != pattern {
			continue
		}
		ex.label = rt.series.label
		if w.Code == http.StatusOK {
			n := 0
			for _, seg := range strings.Split(pattern, "/") {
				if name, ok := strings.CutPrefix(seg, "{"); ok {
					ex.values[n], n = r.PathValue(strings.TrimSuffix(name, "}")), n+1
				}
			}
		}
	}
	ex.status, ex.header, ex.body = w.Code, w.Header(), w.Body.String()
	return ex
}

// checkRoute compares one request's routing by the server's router and
// by the reference mux.
func checkRoute(t *testing.T, s *Server, mux *http.ServeMux, method, target string) {
	t.Helper()
	r1, ok := readRequest(method, target)
	if !ok {
		return
	}
	r2, _ := readRequest(method, target)
	got, want := routerExchange(s, r1), muxExchange(mux, r2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s:\nrouter %+v\n   mux %+v", method, target, got, want)
	}
}

// TestRouterMatchesServeMux: for every method and path, with pprof on
// and off, the router refuses with the mux's status, headers and body,
// and dispatches to the route the mux dispatches to, with the mux's
// wildcard values.
func TestRouterMatchesServeMux(t *testing.T) {
	for _, pprofOn := range []bool{false, true} {
		cfg := testConfig()
		cfg.EnablePprof = pprofOn
		s, mux := New(cfg), refMux(pprofOn)
		for _, method := range routeMethods {
			for _, path := range routePaths {
				if _, ok := readRequest(method, path); !ok {
					t.Fatalf("%s %s does not parse as a request", method, path)
				}
				checkRoute(t, s, mux, method, path)
			}
		}
	}
}

// FuzzRoute holds the router to the reference mux for any request line
// the server would parse, with pprof on and off.
func FuzzRoute(f *testing.F) {
	for _, method := range routeMethods {
		for _, path := range routePaths {
			f.Add(method, path)
		}
	}
	f.Add("CONNECT", "/v1/list/0")
	f.Add("CONNECT", "example.com:443")
	servers := make([]*Server, 2)
	muxes := make([]*http.ServeMux, 2)
	for i, pprofOn := range []bool{false, true} {
		cfg := testConfig()
		cfg.EnablePprof = pprofOn
		servers[i], muxes[i] = New(cfg), refMux(pprofOn)
	}
	f.Fuzz(func(t *testing.T, method, target string) {
		for i := range servers {
			checkRoute(t, servers[i], muxes[i], method, target)
		}
	})
}
