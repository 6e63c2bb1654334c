package search

import (
	"strings"
	"testing"

	"repro/internal/toplist"
	"repro/internal/webgen"
)

func testEngine(t *testing.T) (*Engine, *webgen.Web) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 31, Size: 500})
	entries := u.Top(30)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 31, Sites: seeds})
	return New(web, Config{EnglishOnly: true}), web
}

func TestSiteQuery(t *testing.T) {
	e, web := testEngine(t)
	domain := web.Sites[0].Domain
	res, err := e.Site(domain, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) > 20 {
		t.Fatalf("results = %d", len(res))
	}
	if !strings.HasSuffix(strings.SplitN(res[0].URL, "?", 2)[0], "/") {
		t.Errorf("first result %q should be the landing page", res[0].URL)
	}
	for i, r := range res {
		if r.Rank != i+1 {
			t.Errorf("rank %d at position %d", r.Rank, i)
		}
	}
	// Results ordered by popularity: re-query and compare to TopInternal.
	site := web.Sites[0]
	top := site.TopInternal(3)
	if res[1].URL != top[0].URL() {
		t.Errorf("second result %q, want most popular internal %q", res[1].URL, top[0].URL())
	}
}

func TestQueryAccounting(t *testing.T) {
	e, web := testEngine(t)
	domain := web.Sites[0].Domain
	before := e.Queries()
	if _, err := e.Site(domain, 50); err != nil {
		t.Fatal(err)
	}
	used := e.Queries() - before
	// 50 results at a 6–10 effective yield per query: 5–9 queries.
	if used < 1 || used > 9 {
		t.Errorf("queries used = %d", used)
	}
	if e.CostUSD() <= 0 {
		t.Error("cost not metered")
	}
	// Unknown site still costs a query.
	before = e.Queries()
	if _, err := e.Site("no-such-site.example", 10); err == nil {
		t.Error("want error for unknown site")
	}
	if e.Queries() != before+1 {
		t.Error("failed query not charged")
	}
}

func TestEnglishFiltering(t *testing.T) {
	e, web := testEngine(t)
	for _, s := range web.Sites {
		if !s.Profile.FewEnglish {
			continue
		}
		res, err := e.Site(s.Domain, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) >= 10 {
			t.Errorf("FewEnglish site %s returned %d results", s.Domain, len(res))
		}
		return
	}
	t.Skip("no FewEnglish site at this seed")
}
