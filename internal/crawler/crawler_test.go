package crawler

import (
	"testing"
	"time"

	"repro/internal/toplist"
	"repro/internal/webgen"
)

func crawlWeb(t *testing.T) *webgen.Web {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 41, Size: 500})
	entries := u.Top(10)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	seeds = append(seeds, webgen.SiteSeed{Domain: "bigsite.org", Rank: 5, PoolSize: 900})
	return webgen.Generate(webgen.Config{Seed: 41, Sites: seeds})
}

func TestCrawlDiscoversUniquePages(t *testing.T) {
	web := crawlWeb(t)
	site, _ := web.SiteByDomain("bigsite.org")
	res, err := Crawl(web, site.Landing(), Config{MaxPages: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 400 {
		t.Fatalf("crawled %d pages, want 400", len(res.Pages))
	}
	seen := map[string]bool{}
	for _, p := range res.Pages {
		u := p.URL()
		if seen[u] {
			t.Fatalf("duplicate page %s", u)
		}
		seen[u] = true
		if p.Site != site {
			t.Fatalf("crawl escaped the site: %s", u)
		}
		if p.Disallowed() {
			t.Errorf("crawled a page robots.txt excludes: %s", u)
		}
	}
	if res.Pages[0] != site.Landing() {
		t.Error("crawl must start at the landing page")
	}
	if len(res.InternalPages()) != 399 {
		t.Errorf("internal pages = %d", len(res.InternalPages()))
	}
}

func TestPolitenessBudget(t *testing.T) {
	web := crawlWeb(t)
	site, _ := web.SiteByDomain("bigsite.org")
	res, err := Crawl(web, site.Landing(), Config{MaxPages: 50})
	if err != nil {
		t.Fatal(err)
	}
	if politenessGap != 5*time.Second {
		t.Errorf("politeness gap %v, want the paper's 5s", politenessGap)
	}
	if res.Elapsed != time.Duration(len(res.Pages))*politenessGap {
		t.Errorf("elapsed %v for %d fetches; politeness gap violated", res.Elapsed, len(res.Pages))
	}
}

func TestExternalLinksRecordedNotFollowed(t *testing.T) {
	web := crawlWeb(t)
	site := web.Sites[0]
	res, err := Crawl(web, site.Landing(), Config{MaxPages: 80})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pages {
		if p.Site != site {
			t.Fatalf("external page crawled: %s", p.URL())
		}
	}
	// Internal pages link back to other sites only rarely in the model;
	// external URLs may be empty, which is fine — just assert no overlap.
	for _, e := range res.ExternalURLs {
		if page, ok := web.PageByURL(e); ok && page.Site == site {
			t.Errorf("same-site URL recorded as external: %s", e)
		}
	}
}

func TestNilStart(t *testing.T) {
	web := crawlWeb(t)
	if _, err := Crawl(web, nil, Config{}); err == nil {
		t.Error("want error for nil start")
	}
}

func TestCrawlReachesThousands(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	web := crawlWeb(t)
	site, _ := web.SiteByDomain("bigsite.org")
	res, err := Crawl(web, site.Landing(), Config{MaxPages: 850})
	if err != nil {
		t.Fatal(err)
	}
	// The link structure must expose nearly the whole pool (the §4
	// exhaustive crawl requires >=5000 unique URLs on real sites).
	if len(res.Pages) < 800 {
		t.Errorf("crawl saturated at %d pages; link graph too sparse", len(res.Pages))
	}
}
