package httpbrowser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cdndetect"
	"repro/internal/core"
	"repro/internal/psl"
	"repro/internal/toplist"
	"repro/internal/urlx"
	"repro/internal/webgen"
	"repro/internal/webserve"
)

// loopbackWeb serves the top sites of a seeded universe on a loopback
// listener and returns the web with a browser pointed at it.
func loopbackWeb(t *testing.T, seed int64, sites int) (*webgen.Web, *Browser) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: seed, Size: 300})
	entries := u.Top(sites)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: seed, Sites: seeds})
	srv := webserve.New(web)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return web, New(Config{Client: srv.Client(), ForceScheme: "http"})
}

// TestLoadDiscoversWholeTree drives the full real-HTTP path over many
// seeds: serve a 3-site web over loopback, load each site's landing page
// and two internal pages by parsing delivered HTML/CSS/JS, and hold the
// recovered tree to the generator's ground truth. The HAR must fetch
// exactly the model's object URLs, each at the model's depth. A
// preloaded object may also appear at depth 1, where the root
// document's preload hint names it.
func TestLoadDiscoversWholeTree(t *testing.T) {
	var seeds []int64
	for seed := int64(1); seed <= 20; seed++ {
		if !testing.Short() || seed%5 == 0 {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			web, b := loopbackWeb(t, seed, 3)
			for _, site := range web.Sites {
				for i := 0; i <= 2; i++ {
					checkTree(t, b, site.PageAt(i).Build())
				}
			}
		})
	}
}

// checkTree loads m's page and compares the HAR with the model.
func checkTree(t *testing.T, b *Browser, m *webgen.PageModel) {
	t.Helper()
	pageURL := urlx.WithScheme(m.URL, "http") // loopback server speaks plain HTTP
	log, err := b.Load(pageURL)
	if err != nil {
		t.Fatal(err)
	}
	if log.Entries[0].Request.URL != pageURL {
		t.Fatalf("root entry = %s, want %s", log.Entries[0].Request.URL, pageURL)
	}
	want := make(map[string]*webgen.Object, len(m.Objects))
	for _, o := range m.Objects {
		want[urlx.WithScheme(o.URL, "http")] = o
	}
	got := make(map[string]bool, len(log.Entries))
	for _, e := range log.Entries {
		u := e.Request.URL
		got[u] = true
		o, ok := want[u]
		switch {
		case !ok:
			t.Errorf("%s: fetched %s, which the model does not hold", pageURL, u)
		case e.Depth != o.Depth && !(o.Preloaded && e.Depth == 1):
			t.Errorf("%s: %s at depth %d, model depth %d (preloaded %v)",
				pageURL, u, e.Depth, o.Depth, o.Preloaded)
		}
	}
	for u := range want {
		if !got[u] {
			t.Errorf("%s: model object %s never fetched", pageURL, u)
		}
	}
}

// TestMeasureHAROverRealFetch closes the loop: real fetch → HAR →
// model-independent analysis.
func TestMeasureHAROverRealFetch(t *testing.T) {
	web, b := loopbackWeb(t, 101, 4)
	site := web.Sites[1]
	m := site.Landing().Build()
	log, err := b.Load(urlx.WithScheme(m.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	az := core.Analyzers{PSL: psl.Default(), CDN: cdndetect.New(nil)}
	meas := core.MeasureHAR(log, az)
	if !meas.IsLanding {
		t.Error("landing page not recognized")
	}
	if meas.Objects != len(log.Entries) {
		t.Error("object count mismatch")
	}
	if meas.Bytes <= 0 || meas.UniqueDomains < 2 {
		t.Errorf("bytes=%d domains=%d", meas.Bytes, meas.UniqueDomains)
	}
	if meas.ContentBytes == nil || len(meas.DepthCounts) == 0 {
		t.Error("analysis fields missing")
	}
}

func TestLoadErrors(t *testing.T) {
	_, b := loopbackWeb(t, 101, 4)
	if _, err := b.Load("::bad::"); err == nil {
		t.Error("want error for malformed URL")
	}
	_, err := b.Load("http://unknown-host.example/")
	if err == nil || !strings.Contains(err.Error(), "root returned 404") {
		t.Errorf("unknown host: err = %v, want the root's 404", err)
	}
}

func TestObjectCap(t *testing.T) {
	web, b := loopbackWeb(t, 101, 4)
	b.cfg.MaxObjects = 10
	m := web.Sites[0].Landing().Build()
	log, err := b.Load(urlx.WithScheme(m.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Entries) > 10 {
		t.Errorf("cap violated: %d entries", len(log.Entries))
	}
}
