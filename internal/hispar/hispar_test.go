package hispar

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

func buildFixture(t *testing.T, week int, sites, perSite int) (*List, BuildStats, *webgen.Web) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 21, Size: 1000})
	u.Step(week * 7)
	entries := u.Top(sites * 2)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 21, Week: week, Sites: seeds})
	eng := search.New(web, search.Config{EnglishOnly: true})
	list, stats, err := Build(eng, entries, BuildConfig{
		Sites: sites, URLsPerSite: perSite, MinResults: 5, Name: "Htest", Week: week,
	})
	if err != nil {
		t.Fatal(err)
	}
	return list, stats, web
}

func TestBuildShape(t *testing.T) {
	list, stats, _ := buildFixture(t, 0, 50, 20)
	if len(list.Sets) != 50 {
		t.Fatalf("sets = %d", len(list.Sets))
	}
	for _, set := range list.Sets {
		if set.Landing == "" || !strings.Contains(set.Landing, set.Domain) {
			t.Fatalf("bad landing %q for %s", set.Landing, set.Domain)
		}
		if !strings.HasSuffix(strings.SplitN(set.Landing, "?", 2)[0], "/") {
			t.Errorf("landing %q is not a root document", set.Landing)
		}
		if len(set.Internal) == 0 || len(set.Internal) > 19 {
			t.Errorf("%s: %d internal URLs", set.Domain, len(set.Internal))
		}
		seen := map[string]bool{set.Landing: true}
		for _, u := range set.Internal {
			if seen[u] {
				t.Errorf("%s: duplicate URL %s", set.Domain, u)
			}
			seen[u] = true
		}
	}
	if stats.Queries == 0 || stats.CostUSD <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Ranks ascend.
	for i := 1; i < len(list.Sets); i++ {
		if list.Sets[i].Rank < list.Sets[i-1].Rank {
			t.Fatal("sets not in rank order")
		}
	}
}

func TestBuildDropsFewEnglishSites(t *testing.T) {
	// Use the H2K threshold (10 results), below which every FewEnglish
	// site (3–8 English pages) must be dropped.
	u := toplist.NewUniverse(toplist.Config{Seed: 21, Size: 1000})
	entries := u.Top(120)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 21, Sites: seeds})
	few := 0
	for _, s := range web.Sites {
		if s.Profile.FewEnglish {
			few++
		}
	}
	if few == 0 {
		t.Skip("no FewEnglish sites drawn at this seed")
	}
	eng := search.New(web, search.Config{EnglishOnly: true})
	_, stats, err := Build(eng, entries, BuildConfig{Sites: 60, URLsPerSite: 20, MinResults: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SitesDropped == 0 {
		t.Errorf("no sites dropped although %d of 120 are FewEnglish", few)
	}
}

func TestTopBottomSlices(t *testing.T) {
	list, _, _ := buildFixture(t, 0, 40, 10)
	top := list.Top(10)
	bottom := list.Bottom(10)
	if len(top.Sets) != 10 || len(bottom.Sets) != 10 {
		t.Fatal("slice sizes wrong")
	}
	if top.Sets[0].Domain != list.Sets[0].Domain {
		t.Error("Top should start at rank 1")
	}
	if bottom.Sets[9].Domain != list.Sets[39].Domain {
		t.Error("Bottom should end at the last site")
	}
	if !slices.ContainsFunc(list.Sets, func(s URLSet) bool { return s.Domain == top.Sets[0].Domain }) {
		t.Error("top site missing from Sets")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	list, _, _ := buildFixture(t, 0, 20, 10)
	var buf bytes.Buffer
	if err := list.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != list.Name || got.Week != list.Week {
		t.Errorf("header lost: %s/%d", got.Name, got.Week)
	}
	if len(got.Sets) != len(list.Sets) {
		t.Fatalf("sets = %d, want %d", len(got.Sets), len(list.Sets))
	}
	for i := range got.Sets {
		if got.Sets[i].Domain != list.Sets[i].Domain ||
			got.Sets[i].Landing != list.Sets[i].Landing ||
			len(got.Sets[i].Internal) != len(list.Sets[i].Internal) {
			t.Fatalf("set %d mismatch", i)
		}
	}
	if got.Pages() != list.Pages() {
		t.Errorf("pages = %d, want %d", got.Pages(), list.Pages())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("not,a\n")); err == nil {
		t.Error("want error for malformed row")
	}
	if _, err := ReadCSV(strings.NewReader("x,dom,url\n")); err == nil {
		t.Error("want error for bad rank")
	}
}

func TestChurnMetrics(t *testing.T) {
	a := &List{Sets: []URLSet{
		{Domain: "a.com", Landing: "https://a.com/", Internal: []string{"https://a.com/1", "https://a.com/2"}},
		{Domain: "b.com", Landing: "https://b.com/", Internal: []string{"https://b.com/1"}},
	}}
	b := &List{Sets: []URLSet{
		{Domain: "a.com", Landing: "https://a.com/", Internal: []string{"http://a.com/1", "https://a.com/3"}},
		{Domain: "c.com", Landing: "https://c.com/", Internal: []string{"https://c.com/1"}},
	}}
	if got := SiteChurn(a, b); got != 0.5 {
		t.Errorf("SiteChurn = %v, want 0.5 (b.com gone)", got)
	}
	// a.com: /1 persists (scheme change ignored), /2 gone → churn 1/2;
	// b.com excluded (site churned out).
	if got := InternalChurn(a, b); got != 0.5 {
		t.Errorf("InternalChurn = %v, want 0.5", got)
	}
	if got := SiteChurn(&List{}, b); got != 0 {
		t.Errorf("empty churn = %v", got)
	}
}

func TestWeeklyChurnEndToEnd(t *testing.T) {
	l0, _, _ := buildFixture(t, 0, 40, 20)
	l1, _, _ := buildFixture(t, 1, 40, 20)
	urlChurn := InternalChurn(l0, l1)
	if urlChurn <= 0.03 {
		t.Errorf("weekly internal churn %.3f suspiciously low", urlChurn)
	}
	if urlChurn > 0.8 {
		t.Errorf("weekly internal churn %.3f suspiciously high", urlChurn)
	}
}
