package webgen

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adblock"
	"repro/internal/htmlx"
)

func testWeb(t *testing.T, week int) *Web {
	t.Helper()
	seeds := []SiteSeed{
		{Domain: "alphanews1.com", Rank: 1},
		{Domain: "megashop2.co.uk", Rank: 120},
		{Domain: "worldportal3.co.jp", Rank: 450, Category: CatWorld},
		{Domain: "smallsite4.net", Rank: 980},
		{Domain: "bigcrawl5.org", Rank: 50, PoolSize: 800},
	}
	return Generate(Config{Seed: 11, Week: week, Sites: seeds})
}

func TestGenerateBasics(t *testing.T) {
	w := testWeb(t, 0)
	if len(w.Sites) != 5 {
		t.Fatalf("sites = %d", len(w.Sites))
	}
	s, ok := w.SiteByDomain("alphanews1.com")
	if !ok || s.Rank != 1 {
		t.Fatal("site lookup failed")
	}
	if got := w.Sites[2].Category; got != CatWorld {
		t.Errorf("forced category = %v", got)
	}
	if w.Sites[4].PoolSize() != 800+w.Sites[4].freshPerWeek()*0 {
		t.Errorf("pool size override = %d", w.Sites[4].PoolSize())
	}
	if len(w.trackers) == 0 {
		t.Error("no tracker domains")
	}
}

func TestBuildDeterministic(t *testing.T) {
	w1 := testWeb(t, 0)
	w2 := testWeb(t, 3) // different week must not change page structure
	p1 := w1.Sites[0].PageAt(7).Build()
	p2 := w2.Sites[0].PageAt(7).Build()
	if len(p1.Objects) != len(p2.Objects) {
		t.Fatalf("object counts differ across weeks: %d vs %d", len(p1.Objects), len(p2.Objects))
	}
	for i := range p1.Objects {
		if p1.Objects[i].URL != p2.Objects[i].URL || p1.Objects[i].Size != p2.Objects[i].Size {
			t.Fatalf("object %d differs across weeks", i)
		}
	}
}

func TestObjectTreeInvariants(t *testing.T) {
	w := testWeb(t, 0)
	for _, s := range w.Sites {
		for _, page := range []*Page{s.Landing(), s.PageAt(1), s.PageAt(2)} {
			m := page.Build()
			if len(m.Objects) < 8 {
				t.Fatalf("%s: too few objects (%d)", page.URL(), len(m.Objects))
			}
			root := m.Objects[0]
			if root.Role != RoleDoc || root.Depth != 0 || root.Parent != -1 {
				t.Fatalf("%s: bad root %+v", page.URL(), root)
			}
			for i, o := range m.Objects[1:] {
				idx := i + 1
				if o.URL == "" || o.Host == "" || o.MIME == "" {
					t.Fatalf("%s obj %d: incomplete %+v", page.URL(), idx, o)
				}
				if o.Size <= 0 {
					t.Fatalf("%s obj %d: size %d", page.URL(), idx, o.Size)
				}
				if o.Depth < 1 || o.Depth > 5 {
					t.Fatalf("%s obj %d: depth %d", page.URL(), idx, o.Depth)
				}
				if o.Parent < 0 || o.Parent >= len(m.Objects) {
					t.Fatalf("%s obj %d: parent %d out of range", page.URL(), idx, o.Parent)
				}
				parent := m.Objects[o.Parent]
				if parent.Depth != o.Depth-1 {
					t.Fatalf("%s obj %d: depth %d but parent depth %d", page.URL(), idx, o.Depth, parent.Depth)
				}
				if parent.Role == RoleCSS && o.Role != RoleImage && o.Role != RoleFont {
					t.Fatalf("%s obj %d: CSS parent with role %v child", page.URL(), idx, o.Role)
				}
				if o.Tracker && !o.ThirdParty {
					t.Fatalf("%s obj %d: tracker must be third-party", page.URL(), idx)
				}
			}
		}
	}
}

func TestTrackersCoveredByEasylist(t *testing.T) {
	w := testWeb(t, 0)
	engine, _ := adblock.Compile(EasylistFor(w.ThirdParties()))
	for _, s := range w.Sites[:3] {
		m := s.Landing().Build()
		for _, o := range m.Objects {
			blocked := engine.Blocked(o.URL)
			if o.Tracker && !blocked {
				t.Errorf("tracker object %s not blocked by synthetic Easylist", o.URL)
			}
			if !o.Tracker && blocked {
				t.Errorf("benign object %s wrongly blocked", o.URL)
			}
		}
	}
}

func TestHTMLRoundTrip(t *testing.T) {
	w := testWeb(t, 0)
	m := w.Sites[0].Landing().Build()
	doc := htmlx.Parse(m.RenderHTML())

	if len(doc.Hints) != len(m.Hints) {
		t.Errorf("hints: parsed %d, model %d", len(doc.Hints), len(m.Hints))
	}
	if doc.AdSlots != m.AdSlots {
		t.Errorf("ad slots: parsed %d, model %d", doc.AdSlots, m.AdSlots)
	}
	// Every depth-1 fetchable object must be discoverable from markup
	// (scripts/css/img/iframe/media tags, preload links, or loadResource
	// markers scanned from inline bootstrap code).
	parsed := make(map[string]bool)
	for _, r := range doc.Resources {
		parsed[r.URL] = true
	}
	html := m.RenderHTML()
	missing := 0
	for i, o := range m.Objects {
		if i == 0 || o.Depth != 1 {
			continue
		}
		if !parsed[o.URL] && !strings.Contains(html, o.URL) {
			missing++
			t.Errorf("depth-1 object %s (%v) absent from markup", o.URL, o.Role)
		}
	}
	if len(doc.Links) != len(m.Links()) {
		t.Errorf("links: parsed %d, model %d", len(doc.Links), len(m.Links()))
	}
}

func TestChildRefsMatchBodies(t *testing.T) {
	w := testWeb(t, 0)
	m := w.Sites[1].PageAt(3).Build()
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		refs := m.ChildRefs(i)
		if len(refs) == 0 {
			continue
		}
		body := m.RenderBody(i, 1<<20)
		for _, r := range refs {
			if !strings.Contains(body, r) {
				t.Errorf("object %d (%v) body missing child ref %s", i, o.Role, r)
			}
		}
	}
}

func TestSchemeLogic(t *testing.T) {
	w := testWeb(t, 0)
	for _, s := range w.Sites {
		landingScheme := s.Landing().Scheme()
		if s.Profile.HTTPLanding && landingScheme != "http" {
			t.Errorf("%s: HTTPLanding but scheme %s", s.Domain, landingScheme)
		}
		if !s.Profile.HTTPLanding && landingScheme != "https" {
			t.Errorf("%s: scheme %s", s.Domain, landingScheme)
		}
		// Mixed content only on HTTPS pages.
		for i := 0; i <= 5; i++ {
			m := s.PageAt(i).Build()
			if m.Objects[0].Scheme == "http" {
				for _, o := range m.Objects {
					if o.Scheme != "http" {
						t.Fatalf("%s: https object on http page", s.Domain)
					}
				}
			}
		}
	}
}

func TestURLsStableAcrossWeeks(t *testing.T) {
	w0 := testWeb(t, 0)
	w4 := testWeb(t, 4)
	for i := 1; i <= 20; i++ {
		u0 := w0.Sites[0].PageAt(i).URL()
		u4 := w4.Sites[0].PageAt(i).URL()
		if u0 != u4 {
			t.Fatalf("page %d URL changed across weeks: %s vs %s", i, u0, u4)
		}
	}
}

func TestVisitWeightsDriftAcrossWeeks(t *testing.T) {
	w0 := testWeb(t, 0)
	w1 := testWeb(t, 1)
	s0, _ := w0.SiteByDomain("alphanews1.com")
	s1, _ := w1.SiteByDomain("alphanews1.com")
	changed := false
	for i := 1; i <= 30; i++ {
		if s0.PageAt(i).VisitWeight() != s1.PageAt(i).VisitWeight() {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("visit weights identical across weeks; churn would be zero")
	}
}

// sortedByWeightOracle is the comparator sort TopInternal and
// PublisherSample used before byVisitWeight: VisitWeight recomputed on
// every comparison, descending, ties by ascending index.
func sortedByWeightOracle(s *Site) []*Page {
	pages := s.InternalPages()
	sort.Slice(pages, func(a, b int) bool {
		wa, wb := pages[a].VisitWeight(), pages[b].VisitWeight()
		if wa != wb {
			return wa > wb
		}
		return pages[a].Index < pages[b].Index
	})
	return pages
}

// TestRankingMatchesComparatorSort holds TopInternal and PublisherSample
// to the old comparator sort on every site of webs at weeks 0–3, where
// fresh pages and weekly drift reshuffle the order.
func TestRankingMatchesComparatorSort(t *testing.T) {
	indices := func(pages []*Page) []int {
		out := make([]int, len(pages))
		for i, p := range pages {
			out[i] = p.Index
		}
		return out
	}
	for week := 0; week <= 3; week++ {
		for _, w := range []*Web{testWeb(t, week), categoryWebAt(week)} {
			for _, s := range w.Sites {
				pool := sortedByWeightOracle(s)
				for _, n := range []int{0, 1, 10, 28, len(pool), len(pool) + 5} {
					want := pool
					if n < len(want) {
						want = want[:n]
					}
					if got := indices(s.TopInternal(n)); !slices.Equal(got, indices(want)) {
						t.Fatalf("week %d %s: TopInternal(%d) = %v, oracle %v", week, s.Domain, n, got, indices(want))
					}
					var picks []*Page
					if m := min(n, len(pool)); m > 0 {
						for i := 0; i < m; i++ {
							picks = append(picks, pool[i*(len(pool)-1)/maxInt(1, m-1)])
						}
						picks = dedupePages(picks)
					}
					if got := indices(s.PublisherSample(n)); !slices.Equal(got, indices(picks)) {
						t.Fatalf("week %d %s: PublisherSample(%d) = %v, oracle %v", week, s.Domain, n, got, indices(picks))
					}
				}
			}
		}
	}
}

func TestTopInternalSortedAndPoolGrows(t *testing.T) {
	w := testWeb(t, 2)
	s := w.Sites[0]
	top := s.TopInternal(10)
	if len(top) != 10 {
		t.Fatalf("TopInternal = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].VisitWeight() < top[i].VisitWeight() {
			t.Fatal("TopInternal not sorted by weight")
		}
	}
	w0 := testWeb(t, 0)
	if w.Sites[0].PoolSize() <= w0.Sites[0].PoolSize() {
		t.Error("news site pool should grow over weeks")
	}
}

func TestPageByURL(t *testing.T) {
	w := testWeb(t, 0)
	s := w.Sites[0]
	p := s.PageAt(5)
	got, ok := w.PageByURL(p.URL())
	if !ok || got.Index != 5 || got.Site != s {
		t.Fatalf("PageByURL failed for %s", p.URL())
	}
	landing, ok := w.PageByURL("https://" + s.Host() + "/")
	if !ok || !landing.IsLanding() {
		t.Fatal("landing lookup failed")
	}
	if _, ok := w.PageByURL("https://unknown.example/"); ok {
		t.Error("unknown site resolved")
	}
	if _, ok := w.PageByURL("https://" + s.Host() + "/not-a-real-path"); ok {
		t.Error("unknown path resolved")
	}
}

func TestAuthorityRecords(t *testing.T) {
	w := testWeb(t, 0)
	auth := w.Authority()
	var cdnSite *Site
	for _, s := range w.Sites {
		if s.Profile.CDNProvider != "" {
			cdnSite = s
			break
		}
	}
	if cdnSite == nil {
		t.Skip("no CDN site in small web")
	}
	rec, ok := auth.Lookup("static." + cdnSite.Domain)
	if !ok {
		t.Fatal("static host missing")
	}
	if len(rec.Chain) == 0 || !strings.Contains(rec.Chain[0], cdnSite.Profile.CDNProvider) {
		t.Errorf("static host should CNAME to the CDN: %+v", rec)
	}
	if rec.TTL > 5*60*1e9 {
		t.Errorf("request-routed TTL too long: %v", rec.TTL)
	}
	plain, ok := auth.Lookup("www." + cdnSite.Domain)
	if !ok || len(plain.Chain) != 0 {
		t.Errorf("www host should be a plain A record: %+v", plain)
	}
}

func TestLandingHeavierOnAverage(t *testing.T) {
	// Aggregate direction check over a slightly larger web.
	u := make([]SiteSeed, 0, 60)
	for i := 0; i < 60; i++ {
		u = append(u, SiteSeed{Domain: DomainNameForTest(i), Rank: i*15 + 1})
	}
	w := Generate(Config{Seed: 5, Sites: u})
	heavier, moreObjs := 0, 0
	for _, s := range w.Sites {
		lm := s.Landing().Build()
		im := s.PageAt(1).Build()
		var lb, ib int64
		for _, o := range lm.Objects {
			lb += o.Size
		}
		for _, o := range im.Objects {
			ib += o.Size
		}
		if lb > ib {
			heavier++
		}
		if len(lm.Objects) > len(im.Objects) {
			moreObjs++
		}
	}
	if heavier < 30 {
		t.Errorf("landing heavier for only %d/60 sites", heavier)
	}
	if moreObjs < 30 {
		t.Errorf("landing more objects for only %d/60 sites", moreObjs)
	}
}

// DomainNameForTest makes unique test domains.
func DomainNameForTest(i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	return "site-" + string(letters[i%26]) + string(letters[(i/26)%26]) + ".com"
}

// TestCacheControlMatchesFormula holds the spelled-out Cache-Control
// strings to the formula they replace, for every lifetime maxAgeFor can
// assign and for lifetimes it cannot, which take the fallback.
func TestCacheControlMatchesFormula(t *testing.T) {
	oracle := func(maxAge int) string {
		switch {
		case maxAge <= 0:
			return ""
		case maxAge >= 31536000:
			return "public, max-age=" + strconv.Itoa(maxAge) + ", immutable"
		default:
			return "public, max-age=" + strconv.Itoa(maxAge)
		}
	}
	ages := []int{-1, 1, 59, 120, 31535999, 31536001}
	for r := Role(0); r <= RoleRedirect; r++ {
		for h := uint64(0); h < 64; h++ {
			ages = append(ages, maxAgeFor(r, h))
		}
	}
	for _, age := range ages {
		o := &Object{Cacheable: true, MaxAgeSecs: age}
		if got, want := o.CacheControl(0), oracle(age); got != want {
			t.Errorf("max-age %d: CacheControl = %q, want %q", age, got, want)
		}
	}
}
