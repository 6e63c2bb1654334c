package webserve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/htmlx"
	"repro/internal/toplist"
	"repro/internal/urlx"
	"repro/internal/webgen"
)

func startServer(t *testing.T) (*Server, *webgen.Web, *http.Client) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 61, Size: 300})
	entries := u.Top(5)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 61, Sites: seeds})
	srv := New(web)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, web, srv.Client()
}

// get fetches a URL through the loopback virtual-hosting client, with
// the scheme forced to http (the test server speaks plain HTTP).
func get(t *testing.T, client *http.Client, rawURL string) (*http.Response, string) {
	t.Helper()
	resp, err := client.Get(urlx.WithScheme(rawURL, "http"))
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", rawURL, err)
	}
	return resp, string(body)
}

func TestServeLandingPageOverRealHTTP(t *testing.T) {
	_, web, client := startServer(t)
	site := web.Sites[0]
	resp, body := get(t, client, site.Landing().URL())
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	doc := htmlx.Parse(body)
	if doc.Title == "" {
		t.Error("served page has no title")
	}
	m := site.Landing().Build()
	if len(doc.Links) != len(m.Links()) {
		t.Errorf("links served %d, model %d", len(doc.Links), len(m.Links()))
	}
}

func TestFetchSubresourcesEndToEnd(t *testing.T) {
	_, web, client := startServer(t)
	site := web.Sites[1]
	// Fetch the document first (registers the page's objects), then walk
	// discovered sub-resources like a crawler-browser would.
	_, body := get(t, client, site.Landing().URL())
	doc := htmlx.Parse(body)
	if len(doc.Resources) == 0 {
		t.Fatal("no sub-resources discovered")
	}
	fetched := 0
	for _, r := range doc.Resources {
		if fetched >= 10 {
			break
		}
		resp, _ := get(t, client, r.URL)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", r.URL, resp.StatusCode)
			continue
		}
		if resp.Header.Get("Cache-Control") == "" {
			t.Errorf("%s: no Cache-Control", r.URL)
		}
		fetched++
	}
	if fetched == 0 {
		t.Fatal("no sub-resources fetched")
	}
}

func TestCSSBodiesCarryChildRefs(t *testing.T) {
	_, web, client := startServer(t)
	site := web.Sites[0]
	m := site.PageAt(1).Build()
	_, _ = get(t, client, m.URL) // register page
	for i, o := range m.Objects {
		if o.Role != webgen.RoleCSS || len(m.ChildRefs(i)) == 0 {
			continue
		}
		resp, body := get(t, client, o.URL)
		if resp.StatusCode != 200 {
			t.Fatalf("css fetch status %d", resp.StatusCode)
		}
		for _, ref := range m.ChildRefs(i) {
			if !strings.Contains(body, ref) {
				t.Errorf("served CSS missing child ref %s", ref)
			}
		}
		return
	}
	t.Skip("no CSS with children on this page")
}

// TestConditionalRequestsAnswer304 walks served sub-resources with the
// validators they advertised and checks the revalidation contract:
// matching If-None-Match or If-Modified-Since answers 304 with an empty
// body; a non-matching validator replays the full 200.
func TestConditionalRequestsAnswer304(t *testing.T) {
	_, web, client := startServer(t)
	site := web.Sites[0]
	m := site.Landing().Build()
	_, _ = get(t, client, m.URL) // register page

	checked := 0
	for i, o := range m.Objects {
		if i == 0 || !o.Cacheable || o.ETag == "" {
			continue
		}
		cond := func(name, value string) *http.Response {
			t.Helper()
			req, err := http.NewRequest("GET", urlx.WithScheme(o.URL, "http"), nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(name, value)
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotModified && len(body) != 0 {
				t.Errorf("%s: 304 carried a %d-byte body", o.URL, len(body))
			}
			return resp
		}
		if resp := cond("If-None-Match", o.ETag); resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s: If-None-Match %s answered %d, want 304", o.URL, o.ETag, resp.StatusCode)
		}
		if resp := cond("If-None-Match", `"mismatched-etag"`); resp.StatusCode != 200 {
			t.Errorf("%s: stale validator answered %d, want 200", o.URL, resp.StatusCode)
		}
		if o.LastModified != "" {
			if resp := cond("If-Modified-Since", o.LastModified); resp.StatusCode != http.StatusNotModified {
				t.Errorf("%s: If-Modified-Since %s answered %d, want 304", o.URL, o.LastModified, resp.StatusCode)
			}
			if resp := cond("If-Modified-Since", "Mon, 02 Jan 2006 15:04:05 GMT"); resp.StatusCode != 200 {
				t.Errorf("%s: ancient If-Modified-Since answered %d, want 200", o.URL, resp.StatusCode)
			}
		}
		checked++
		if checked >= 5 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no cacheable objects with validators on the landing page")
	}
}

func TestUnknownURLs404(t *testing.T) {
	_, web, client := startServer(t)
	resp, _ := get(t, client, "http://"+web.Sites[0].Host()+"/definitely-not-a-page")
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, client, "http://unknown-host.example/")
	if resp.StatusCode != 404 {
		t.Errorf("unknown host status = %d, want 404", resp.StatusCode)
	}
}

func TestRobotsAndWellKnownEndpoints(t *testing.T) {
	_, web, client := startServer(t)
	site := web.Sites[0]
	resp, body := get(t, client, "http://"+site.Host()+"/robots.txt")
	if resp.StatusCode != 200 || !strings.Contains(body, "User-agent:") {
		t.Errorf("robots.txt: status %d body %.60q", resp.StatusCode, body)
	}
	resp, body = get(t, client, "http://"+site.Host()+"/.well-known/hispar.json")
	if resp.StatusCode != 200 {
		t.Fatalf("well-known status %d", resp.StatusCode)
	}
	if !strings.Contains(body, `"pages"`) || !strings.Contains(body, site.Domain) {
		t.Errorf("well-known manifest = %.80q", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("well-known Content-Type = %q", ct)
	}
}

func TestVirtualHostingSeparatesSites(t *testing.T) {
	_, web, client := startServer(t)
	_, bodyA := get(t, client, web.Sites[0].Landing().URL())
	_, bodyB := get(t, client, web.Sites[1].Landing().URL())
	if bodyA == bodyB {
		t.Error("different hosts served identical documents")
	}
}

// TestSharedObjectServedFromLatestPage pins which page owns an object
// URL that several pages reference with different children: the most
// recently served document. The body, and the tree a browser recovers
// from it, must not depend on map iteration order.
func TestSharedObjectServedFromLatestPage(t *testing.T) {
	_, web, client := startServer(t)
	var a, b objectRef
	owners := make(map[string]objectRef)
search:
	for _, site := range web.Sites {
		for i := 0; i <= 3; i++ {
			m := site.PageAt(i).Build()
			for idx, o := range m.Objects {
				if idx == 0 {
					continue
				}
				first, ok := owners[o.URL]
				if !ok {
					owners[o.URL] = objectRef{m, idx}
					continue
				}
				if first.m.RenderBody(first.idx, maxBodyFill) != m.RenderBody(idx, maxBodyFill) {
					a, b = first, objectRef{m, idx}
					break search
				}
			}
		}
	}
	if a.m == nil {
		t.Fatal("no object URL shared by two pages with different bodies")
	}
	objURL := a.m.Objects[a.idx].URL
	for i := 0; i < 20; i++ {
		for _, order := range [][2]objectRef{{a, b}, {b, a}} {
			get(t, client, order[0].m.URL)
			get(t, client, order[1].m.URL)
			_, body := get(t, client, objURL)
			if want := order[1].m.RenderBody(order[1].idx, maxBodyFill); body != want {
				t.Fatalf("repeat %d: %s after %s then %s: body is not the latest page's",
					i, objURL, order[0].m.URL, order[1].m.URL)
			}
		}
	}
}

// TestGracefulShutdownDrainsInFlight pins the Shutdown contract: a
// request already inside a handler runs to completion while the closed
// listener refuses new connections, and Shutdown only returns once the
// in-flight response has been written.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	u := toplist.NewUniverse(toplist.Config{Seed: 61, Size: 300})
	entries := u.Top(3)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 61, Sites: seeds})
	srv := New(web)

	entered := make(chan struct{}) // handler reached
	release := make(chan struct{}) // test lets the handler finish
	srv.Wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			next.ServeHTTP(w, r)
		})
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := srv.Client()

	inflight := make(chan error, 1)
	go func() {
		resp, err := client.Get(urlx.WithScheme(web.Sites[0].Landing().URL(), "http"))
		if err != nil {
			inflight <- err
			return
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != 200 {
			err = fmt.Errorf("in-flight request answered %d", resp.StatusCode)
		}
		inflight <- err
	}()
	<-entered // the request is inside the handler

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()

	// New connections are refused as soon as the listener closes. Poll:
	// Shutdown closes the listener before it starts draining, but we may
	// race its first instruction.
	refused := false
	for i := 0; i < 200; i++ {
		conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			refused = true
			break
		}
		conn.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("listener still accepting connections after Shutdown began")
	}

	// Shutdown must still be draining: the handler is parked on release.
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request failed during graceful shutdown: %v", err)
	}
	select {
	case err := <-shutdown:
		if err != nil {
			t.Errorf("Shutdown = %v, want nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request completed")
	}
}
