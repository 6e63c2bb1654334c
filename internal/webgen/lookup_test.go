package webgen

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var allCategories = []Category{CatNews, CatShopping, CatSocial, CatTech,
	CatReference, CatEntertainment, CatBusiness, CatSports, CatWorld}

// categoryWeb returns a web at week 3 with one site per category, so
// every pool holds base pages and three weeks of fresh ones.
func categoryWeb() *Web { return categoryWebAt(3) }

// categoryWebAt is categoryWeb at the given week.
func categoryWebAt(week int) *Web {
	seeds := make([]SiteSeed, len(allCategories))
	for i, c := range allCategories {
		seeds[i] = SiteSeed{Domain: "cat" + strconv.Itoa(i) + ".example.com", Rank: 10 + 97*i, Category: c}
	}
	return Generate(Config{Seed: 5, Week: week, Sites: seeds})
}

// pathMap is the per-site path → index map PageByURL used to keep: every
// path of the pool, a later index winning a (never seen) collision.
func pathMap(s *Site) map[string]int {
	m := make(map[string]int, s.PoolSize())
	for i := 1; i <= s.PoolSize(); i++ {
		m[s.PageAt(i).Path()] = i
	}
	return m
}

// indexOffset is the amount pathFor adds to the index it embeds.
func indexOffset(c Category) int {
	switch c {
	case CatShopping:
		return 10000
	case CatSocial:
		return 100000
	}
	return 0
}

func TestPageByURLInvertsEveryPage(t *testing.T) {
	w := categoryWeb()
	for _, s := range w.Sites {
		if s.PoolSize() <= s.poolSize {
			t.Fatalf("%s: pool %d has no fresh pages", s.Domain, s.PoolSize())
		}
		for i := 1; i <= s.PoolSize(); i++ {
			u := s.PageAt(i).URL()
			got, ok := w.PageByURL(u)
			if !ok || got.Site != s || got.Index != i {
				t.Fatalf("%s: PageByURL(%q) = %v, %v; want index %d", s.Category, u, got, ok, i)
			}
		}
	}
}

func TestPageByURLNearMisses(t *testing.T) {
	w := categoryWeb()
	for si, s := range w.Sites {
		paths := pathMap(s)
		foreign := w.Sites[(si+1)%len(w.Sites)]
		off := indexOffset(s.Category)
		for _, i := range []int{1, 7, s.PoolSize() / 2, s.PoolSize()} {
			path := s.PageAt(i).Path()
			num := strconv.Itoa(off + i)
			at := strings.LastIndex(path, num)
			if at < 0 {
				t.Fatalf("%s: path %q does not embed %s", s.Category, path, num)
			}
			with := func(repl string) string { return path[:at] + repl + path[at+len(num):] }
			misses := map[string]string{
				"leading zero":    with("0" + num),
				"plus sign":       with("+" + num),
				"index 0":         with(strconv.Itoa(off)),
				"past pool size":  with(strconv.Itoa(off + s.PoolSize() + 1)),
				"negative index":  with(strconv.Itoa(off - 1)),
				"unborn page":     s.PageAt(s.PoolSize() + 1).Path(),
				"trailing slash":  path + "/",
				"trailing junk":   path + "x",
				"no index at all": path[:at],
			}
			for name, p := range misses {
				if _, ok := paths[p]; ok {
					t.Fatalf("%s %s: %q is a real path", s.Category, name, p)
				}
				if got, ok := w.PageByURL("https://" + s.Host() + p); ok {
					t.Errorf("%s %s: PageByURL(%q) = index %d", s.Category, name, p, got.Index)
				}
			}
			// A neighbour's index in this page's path is a miss unless
			// the old map says it is that neighbour's real path.
			wrong := with(strconv.Itoa(off + i%s.PoolSize() + 1))
			want, wantOK := paths[wrong]
			got, ok := w.PageByURL("https://" + s.Host() + wrong)
			if ok != wantOK || (ok && got.Index != want) {
				t.Errorf("%s wrong index: PageByURL(%q) = %v, %v; map says %d, %v", s.Category, wrong, got, ok, want, wantOK)
			}
			// The same path under another site's host resolves only as
			// that site's page, exactly as its map says.
			want, wantOK = pathMap(foreign)[path]
			got, ok = w.PageByURL("https://" + foreign.Host() + path)
			if ok != wantOK || (ok && (got.Site != foreign || got.Index != want)) {
				t.Errorf("%s foreign host: PageByURL(%q on %s) = %v, %v; map says %d, %v",
					s.Category, path, foreign.Domain, got, ok, want, wantOK)
			}
			if _, ok := w.PageByURL("https://www.not-generated.example" + path); ok {
				t.Errorf("%s: path %q resolved on an unknown host", s.Category, path)
			}
		}
	}
}

// TestPageByURLConcurrentWithLanding looks pages up from many goroutines
// on a web nobody has read yet, as webserve does for concurrent requests.
// Run under -race: lookups must not write shared state.
func TestPageByURLConcurrentWithLanding(t *testing.T) {
	w := testWeb(t, 2)
	s := w.Sites[0]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				idx := 1 + (g*20+i)%s.PoolSize()
				u := "https://" + s.Host() + s.PageAt(idx).Path()
				if p, ok := w.PageByURL(u); !ok || p.Index != idx {
					t.Errorf("PageByURL(%q) = %v, %v", u, p, ok)
				}
				if s.Landing() == nil {
					t.Error("nil landing page")
				}
				if p, ok := w.PageByURL("https://" + s.Host() + "/"); !ok || !p.IsLanding() {
					t.Errorf("landing lookup = %v, %v", p, ok)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRosterConcurrentBuild builds every page of one site from 8
// goroutines on a web nobody has built from yet, so they race for the
// site's first roster draw. Run under -race. Every model must equal the
// one a serial build on a fresh web returns.
func TestRosterConcurrentBuild(t *testing.T) {
	const workers = 8
	site := 3 // smallsite4.net: the smallest pool
	serial := testWeb(t, 0).Sites[site]
	n := serial.PoolSize()
	want := make([]PageModel, n+1)
	for i := range want {
		want[i] = *serial.PageAt(i).Build()
		want[i].Page = nil
	}
	s := testWeb(t, 0).Sites[site]
	got := make([]PageModel, n+1)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i <= n; i += workers {
				got[i] = *s.PageAt(i).Build()
				got[i].Page = nil
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("page %d: concurrent build differs from serial build", i)
		}
	}
}
