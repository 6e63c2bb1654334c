package webgen

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/detrand"
)

// builderWeb generates sites of every category, popular and long-tail,
// so its pages cover every branch of Build.
func builderWeb(t *testing.T) *Web {
	t.Helper()
	cats := []Category{CatNews, CatShopping, CatSocial, CatTech, CatReference,
		CatEntertainment, CatBusiness, CatSports, CatWorld}
	seeds := make([]SiteSeed, 180)
	for i := range seeds {
		seeds[i] = SiteSeed{
			Domain:   "site" + strconv.Itoa(i) + ".example.com",
			Rank:     1 + i*37,
			Category: cats[i%len(cats)],
		}
	}
	return Generate(Config{Seed: 29, Sites: seeds})
}

// pagePool returns every site's landing page and first internal pages,
// plus internal pages that take the §6.1 redirect hop and pages with
// mixed content, so both kinds are certain to be present.
func pagePool(t *testing.T, w *Web) []*Page {
	t.Helper()
	var pages []*Page
	redirects, mixed := 0, 0
	for _, s := range w.Sites {
		pages = append(pages, s.Landing())
		for idx := 1; idx <= s.PoolSize(); idx++ {
			p := s.PageAt(idx)
			_, redirect := p.RedirectsToInsecure()
			mixedPage := p.baseScheme() == "https" && !redirect && s.Profile.MixedInternalProb > 0 &&
				noise01KeyIdx(s.seed, "mixed", idx) < s.Profile.MixedInternalProb
			switch {
			case redirect && redirects < 60:
				redirects++
				pages = append(pages, p)
			case mixedPage && mixed < 60:
				mixed++
				pages = append(pages, p)
			case idx <= 10:
				pages = append(pages, p)
			}
		}
	}
	if redirects == 0 || mixed == 0 {
		t.Fatalf("pool lacks §6.1 pages: %d redirect-wrapped, %d mixed-content", redirects, mixed)
	}
	return pages
}

// TestRecycledBuildsMatchFresh builds random page sequences on one
// builder — pages of different sites and sizes, redirect-wrapped ones
// included — and holds every model to a fresh Page.Build of the page.
func TestRecycledBuildsMatchFresh(t *testing.T) {
	w := builderWeb(t)
	pool := pagePool(t, w)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(detrand.New(seed))
		var b Builder
		var lastLen int
		shrank := false
		for step := 0; step < 300; step++ {
			p := pool[rng.Intn(len(pool))]
			got := b.Build(p)
			want := p.Build()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: recycled model of %s differs from a fresh build", seed, step, p.URL())
			}
			if len(got.Objects) < lastLen {
				shrank = true
			}
			lastLen = len(got.Objects)
		}
		if !shrank {
			t.Fatalf("seed %d: no build was smaller than the one before it", seed)
		}
	}
}

// TestObjectOriginIsURLPrefix holds every object's URL to start with
// scheme://host, over pages of every category, redirect-wrapped and
// mixed-content pages included, and Origin to slice it out without
// allocating.
func TestObjectOriginIsURLPrefix(t *testing.T) {
	w := builderWeb(t)
	pool := pagePool(t, w)
	if len(pool) < 2000 {
		t.Fatalf("pool has %d pages, want at least 2000", len(pool))
	}
	var b Builder
	seen := map[Category]bool{}
	downgraded, wrapped := 0, 0
	for _, p := range pool {
		m := b.Build(p)
		seen[p.Site.Category] = true
		if m.RedirectedFrom != "" {
			wrapped++
		}
		for i, o := range m.Objects {
			want := o.Scheme + "://" + o.Host
			if got := o.Origin(); got != want || len(o.URL) < len(want) || o.URL[:len(want)] != want {
				t.Fatalf("%s object %d: URL %q, origin %q, want prefix %q", m.URL, i, o.URL, got, want)
			}
			if i > 0 && o.Scheme == "http" && m.Objects[0].Scheme == "https" {
				downgraded++
			}
		}
	}
	if len(seen) != 9 || downgraded == 0 || wrapped == 0 {
		t.Fatalf("coverage: %d categories, %d downgraded objects, %d wrapped pages", len(seen), downgraded, wrapped)
	}
	o := b.Build(pool[0]).Objects[1]
	if n := testing.AllocsPerRun(100, func() { _ = o.Origin() }); n != 0 {
		t.Errorf("Origin allocates %v times", n)
	}
}

// TestRecycledBuildAllocations bounds what a builder that has built
// before allocates per page: the page URL and the amortized string
// storage, not the objects and temporaries of a fresh build.
func TestRecycledBuildAllocations(t *testing.T) {
	w := builderWeb(t)
	var pages []*Page
	for _, s := range w.Sites[:40] {
		pages = append(pages, s.Landing(), s.PageAt(1), s.PageAt(2))
	}
	var b Builder
	for _, p := range pages {
		b.Build(p)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(pages), func() {
		b.Build(pages[next%len(pages)])
		next++
	})
	if allocs > 30 {
		t.Fatalf("a recycled build allocates %.1f times, want at most 30", allocs)
	}
	t.Logf("%.1f allocations per recycled build", allocs)
}

// TestPermIntoMatchesPerm holds permInto to rand.Perm's draws.
func TestPermIntoMatchesPerm(t *testing.T) {
	for n := 0; n < 60; n++ {
		want := detrand.New(int64(n)).Perm(n)
		got := make([]int, n)
		permInto(detrand.New(int64(n)), got)
		if !slices.Equal(got, want) {
			t.Fatalf("permInto(%d) = %v, Perm %v", n, got, want)
		}
	}
}
