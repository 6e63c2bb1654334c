package browser

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/webgen"
)

// protoBrowser builds a browser with the given protocol options over the
// shared test web.
func protoBrowser(t *testing.T, p Protocol) (*Browser, *webgen.Web) {
	t.Helper()
	_, web := testBrowser(t, 2.2) // reuse web construction
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: 51, WarmQueryRate: 0.8,
	}, web.Authority(), nil)
	b, err := New(Config{
		Seed:     51,
		Resolver: resolver,
		Protocol: p,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), 51)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, web
}

func TestH2OneConnectionPerOrigin(t *testing.T) {
	b, web := protoBrowser(t, Protocol{H2Multiplex: true})
	m := web.Sites[0].Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	perOrigin := map[string]int{}
	for i, e := range log.Entries {
		if e.Timings.NewConnection() {
			perOrigin[m.Objects[i].Scheme+"://"+m.Objects[i].Host]++
		}
	}
	for origin, n := range perOrigin {
		if n != 1 {
			t.Errorf("%s: %d handshakes under H2, want exactly 1", origin, n)
		}
	}
}

func TestQUICHandshakeCheaperThanTLS12(t *testing.T) {
	base, web := protoBrowser(t, Protocol{})
	quic, _ := protoBrowser(t, Protocol{QUIC: true})
	m := web.Sites[0].Landing().Build()
	lb, err := base.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := quic.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hsBase, hsQUIC time.Duration
	for i := range lb.Entries {
		hsBase += lb.Entries[i].Timings.Handshake()
		hsQUIC += lq.Entries[i].Timings.Handshake()
	}
	if hsQUIC >= hsBase {
		t.Errorf("QUIC handshake total %v not below baseline %v", hsQUIC, hsBase)
	}
	// No separate TLS phase under QUIC.
	for i, e := range lq.Entries {
		if e.Timings.SSL > 0 {
			t.Fatalf("entry %d has an SSL phase under QUIC: %v", i, e.Timings.SSL)
		}
	}
}

func TestServerPushChildrenStartEarly(t *testing.T) {
	base, web := protoBrowser(t, Protocol{})
	push, _ := protoBrowser(t, Protocol{ServerPush: true})
	// Find a page with depth>=2 objects.
	for _, s := range web.Sites {
		m := s.Landing().Build()
		deep := -1
		for i, o := range m.Objects {
			if o.Depth == 2 && !o.Preloaded {
				deep = i
				break
			}
		}
		if deep < 0 {
			continue
		}
		lb, err := base.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := push.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		nav := lb.Page.NavigationStart
		baseStart := lb.Entries[deep].StartedAt.Sub(nav)
		pushStart := lp.Entries[deep].StartedAt.Sub(lp.Page.NavigationStart)
		if pushStart >= baseStart {
			t.Errorf("deep object started at %v with push, %v without", pushStart, baseStart)
		}
		if lp.Page.Timings.OnLoad >= lb.Page.Timings.OnLoad {
			t.Errorf("push onLoad %v not below baseline %v", lp.Page.Timings.OnLoad, lb.Page.Timings.OnLoad)
		}
		return
	}
	t.Skip("no depth-2 object found")
}

func TestPreconnectAllRemovesRootDNSFromCriticalPath(t *testing.T) {
	b, web := protoBrowser(t, Protocol{PreconnectAll: true})
	m := web.Sites[1].Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With every origin pre-warmed, most entries reuse connections.
	reused := 0
	for _, e := range log.Entries {
		if !e.Timings.NewConnection() {
			reused++
		}
	}
	if reused < len(log.Entries)/2 {
		t.Errorf("only %d/%d requests reused pre-warmed connections", reused, len(log.Entries))
	}
}

// TestPreconnectAllRepeatable loads the same pages in the same order on
// two fresh PreconnectAll browsers and requires equal HARs.
// Preconnects open connections under per-origin and total caps and
// draw handshake times, so their order must not follow map order.
func TestPreconnectAllRepeatable(t *testing.T) {
	b1, web := protoBrowser(t, Protocol{PreconnectAll: true})
	b2, _ := protoBrowser(t, Protocol{PreconnectAll: true})
	for _, s := range web.Sites {
		for _, page := range []*webgen.Page{s.Landing(), s.PageAt(1)} {
			m := page.Build()
			for fetch := 0; fetch < 2; fetch++ {
				l1, err1 := b1.LoadRevisit(m, fetch, 0, 0)
				l2, err2 := b2.LoadRevisit(m, fetch, 0, 0)
				if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(l1, l2) {
					t.Fatalf("%s fetch %d: two PreconnectAll loads differ (onLoad %v vs %v)",
						m.URL, fetch, l1.Page.Timings.OnLoad, l2.Page.Timings.OnLoad)
				}
			}
		}
	}
}

func TestRedirectPageLoad(t *testing.T) {
	b, web := protoBrowser(t, Protocol{})
	for _, s := range web.Sites {
		if s.Profile.InsecureRedirectProb <= 0 {
			continue
		}
		for i := 1; i <= s.PoolSize(); i++ {
			page := s.PageAt(i)
			if _, ok := page.RedirectsToInsecure(); !ok {
				continue
			}
			m := page.Build()
			log, err := b.LoadRevisit(m, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			first := log.Entries[0]
			if first.Response.Status != 301 {
				t.Fatalf("first entry status = %d, want 301", first.Response.Status)
			}
			loc := first.Response.HeaderValue("Location")
			if loc != m.Objects[1].URL {
				t.Fatalf("Location = %q, want %q", loc, m.Objects[1].URL)
			}
			// The document fetch must start after the redirect lands.
			if log.Entries[1].StartedAt.Before(first.StartedAt.Add(first.Time)) {
				t.Error("document fetched before the redirect completed")
			}
			return
		}
	}
	t.Skip("no redirect page at this seed")
}
