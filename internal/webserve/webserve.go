// Package webserve serves a generated web over real HTTP using net/http,
// with name-based virtual hosting: every synthetic host (site hosts,
// static subdomains, third-party and CDN hosts) is multiplexed onto one
// listener and selected by the Host header. It exists so that integration
// tests and examples exercise genuine HTTP parsing, header semantics, and
// the htmlx scanner against served markup — the page-load *timing* engine
// (internal/browser) stays in virtual time.
package webserve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/httpsem"
	"repro/internal/webgen"
)

// maxBodyFill caps the generated filler of one object body.
const maxBodyFill = 64 << 10

// Server serves one web snapshot.
type Server struct {
	web *webgen.Web
	// Wrap, when set before Start, wraps the virtual-hosting handler —
	// the attachment point for middleware (request logging, test gates).
	Wrap func(http.Handler) http.Handler

	mu      sync.Mutex
	models  map[string]*webgen.PageModel // page URL (host+path) -> model
	objects map[string]objectRef         // object host+request URI -> owner
	httpd   *http.Server
	ln      net.Listener
}

// objectRef locates one object inside the page model that owns it.
type objectRef struct {
	m   *webgen.PageModel
	idx int
}

// New creates a server over web.
func New(web *webgen.Web) *Server {
	return &Server{
		web:     web,
		models:  make(map[string]*webgen.PageModel),
		objects: make(map[string]objectRef),
	}
}

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("webserve: listen: %w", err)
	}
	s.ln = ln
	handler := http.Handler(s)
	if s.Wrap != nil {
		handler = s.Wrap(handler)
	}
	s.httpd = &http.Server{Handler: handler}
	go func() { _ = s.httpd.Serve(ln) }() //detlint:allow gorleak -- accept-loop daemon: Serve returns when Close shuts the listener
	return ln.Addr().String(), nil
}

// Close stops the server immediately, cutting in-flight requests.
func (s *Server) Close() error {
	if s.httpd != nil {
		return s.httpd.Close()
	}
	return nil
}

// Shutdown stops the server gracefully: the listener closes at once (new
// connections are refused) while in-flight requests run to completion.
// If ctx expires before the drain finishes, the remaining connections
// are cut and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpd == nil {
		return nil
	}
	if err := s.httpd.Shutdown(ctx); err != nil {
		_ = s.httpd.Close() // drain deadline hit: cut the stragglers
		return err
	}
	return nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// pageModel returns (building if needed) the page model whose root
// document is served at host+path, and indexes its objects so their URLs
// resolve to this page. A third-party URL can appear in several pages
// with different children; the most recently served document owns it,
// which makes a sequence of page loads deterministic.
func (s *Server) pageModel(host, path string) (*webgen.PageModel, bool) {
	page, ok := s.web.PageByURL("http://" + host + path)
	if !ok {
		return nil, false
	}
	key := strings.TrimPrefix(host, "www.") + "|" + path
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[key]
	if !ok {
		m = page.Build()
		s.models[key] = m
	}
	// Walk backwards so that within one page the first object with a
	// given URL owns it.
	for i := len(m.Objects) - 1; i > 0; i-- {
		s.objects[objectKey(m.Objects[i].URL)] = objectRef{m, i}
	}
	return m, true
}

// objectKey strips the scheme from an object URL, leaving the host and
// request URI that a request for it carries.
func objectKey(rawURL string) string {
	if _, rest, ok := strings.Cut(rawURL, "://"); ok {
		return rest
	}
	return rawURL
}

// findObject looks up an object URL among the served documents' objects.
func (s *Server) findObject(host, uri string) (objectRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.objects[host+uri]
	return ref, ok
}

// ServeHTTP implements http.Handler with virtual hosting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	uri := r.URL.RequestURI()

	if r.URL.Path == "/robots.txt" {
		if site, ok := s.web.SiteByDomain(strings.TrimPrefix(host, "www.")); ok {
			w.Header().Set("Content-Type", "text/plain")
			_, _ = w.Write([]byte(site.RobotsTxt()))
			return
		}
		http.NotFound(w, r)
		return
	}

	// Publisher-provided representative pages (§7), served at a
	// Well-Known URI.
	if r.URL.Path == "/.well-known/hispar.json" {
		if site, ok := s.web.SiteByDomain(strings.TrimPrefix(host, "www.")); ok {
			body, err := site.WellKnownManifest(10)
			if err == nil {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Cache-Control", "max-age=86400")
				_, _ = w.Write(body)
				return
			}
		}
		http.NotFound(w, r)
		return
	}

	// Root documents first.
	if m, ok := s.pageModel(host, r.URL.Path); ok {
		body := m.RenderHTML()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Server", "webgen-origin")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write([]byte(body))
		return
	}

	// Sub-resources of previously served documents.
	if ref, ok := s.findObject(host, uri); ok {
		m, idx := ref.m, ref.idx
		o := m.Objects[idx]
		w.Header().Set("Content-Type", o.MIME)
		if cc := o.CacheControl(idx); cc != "" {
			w.Header().Set("Cache-Control", cc)
		}
		if o.Cacheable {
			if o.ETag != "" {
				w.Header().Set("ETag", o.ETag)
			}
			if o.LastModified != "" {
				w.Header().Set("Last-Modified", o.LastModified)
			}
		}
		if o.ViaCDN != "" {
			w.Header().Set("Server", o.ViaCDN)
			w.Header().Set("X-Cache", "MISS")
		} else {
			w.Header().Set("Server", "webgen-origin")
		}
		// Conditional revalidation: generated objects are immutable, so
		// any validator match answers 304 (If-None-Match takes
		// precedence over If-Modified-Since, RFC 7232 §6).
		if notModified(r, o) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		body := m.RenderBody(idx, maxBodyFill)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write([]byte(body))
		return
	}

	http.NotFound(w, r)
}

// notModified evaluates the request's conditional headers against the
// object's validators via the shared RFC 7232 evaluation in httpsem.
func notModified(r *http.Request, o *webgen.Object) bool {
	return httpsem.CheckNotModified(
		r.Header.Get("If-None-Match"), r.Header.Get("If-Modified-Since"),
		o.ETag, o.LastModified)
}

// Client returns an http.Client that routes every request to the server
// regardless of the URL's host, preserving the Host header — the
// loopback analogue of wide-area virtual hosting.
func (s *Server) Client() *http.Client {
	addr := s.Addr()
	transport := &http.Transport{
		Proxy: nil,
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
	return &http.Client{Transport: transport}
}
