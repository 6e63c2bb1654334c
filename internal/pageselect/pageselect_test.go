package pageselect

import (
	"testing"

	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

func fixture(t *testing.T) (*webgen.Web, *search.Engine) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 91, Size: 400})
	entries := u.Top(12)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 91, Sites: seeds})
	return web, search.New(web, search.Config{})
}

func TestAllStrategiesSelectInternalPages(t *testing.T) {
	web, engine := fixture(t)
	site := web.Sites[0]
	for _, strat := range All(engine, 91) {
		sample, err := strat.Select(web, site, 8)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if len(sample) == 0 {
			t.Fatalf("%s: empty sample", strat.Name())
		}
		if len(sample) > 8 {
			t.Fatalf("%s: %d pages, want <= 8", strat.Name(), len(sample))
		}
		seen := map[int]bool{}
		for _, p := range sample {
			if p.IsLanding() {
				t.Fatalf("%s selected the landing page", strat.Name())
			}
			if p.Site != site {
				t.Fatalf("%s escaped the site", strat.Name())
			}
			if seen[p.Index] {
				t.Fatalf("%s returned duplicates", strat.Name())
			}
			seen[p.Index] = true
		}
	}
}

func TestSearchIsPopularityBiased(t *testing.T) {
	web, engine := fixture(t)
	var scores []Score
	for _, site := range web.Sites[:6] {
		pool := NewPool(site)
		for _, strat := range All(engine, 91) {
			sample, err := strat.Select(web, site, 8)
			if err != nil || len(sample) == 0 {
				continue
			}
			scores = append(scores, pool.Score(strat.Name(), sample))
		}
	}
	sums := Summarize(scores)
	byName := map[string]Summary{}
	for _, s := range sums {
		byName[s.Strategy] = s
	}
	if byName["search"].MeanPopulShare <= byName["crawl"].MeanPopulShare {
		t.Errorf("search popularity share (%.3f) should exceed uniform crawl (%.3f) — the §3 bias Hispar wants",
			byName["search"].MeanPopulShare, byName["crawl"].MeanPopulShare)
	}
	for _, s := range sums {
		if s.MeanObjectsErr > 0.5 || s.MeanBytesErr > 0.6 {
			t.Errorf("%s sample unrepresentative: objErr=%.3f bytesErr=%.3f", s.Strategy, s.MeanObjectsErr, s.MeanBytesErr)
		}
	}
}

func TestPublisherSampleStratified(t *testing.T) {
	web, _ := fixture(t)
	site := web.Sites[1]
	sample := site.PublisherSample(10)
	if len(sample) == 0 {
		t.Fatal("empty publisher sample")
	}
	// Must span head and tail of the popularity ordering, not just hits.
	pool := site.InternalPages()
	var minW, maxW float64
	for i, p := range pool {
		w := p.VisitWeight()
		if i == 0 || w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	var sMin, sMax float64
	for i, p := range sample {
		w := p.VisitWeight()
		if i == 0 || w < sMin {
			sMin = w
		}
		if w > sMax {
			sMax = w
		}
	}
	if sMax < maxW*0.99 {
		t.Error("publisher sample misses the head of the popularity distribution")
	}
	if sMin > minW*50 && len(pool) > 20 {
		t.Errorf("publisher sample misses the tail: min %g vs pool min %g", sMin, minW)
	}
}

func TestWellKnownManifestJSON(t *testing.T) {
	web, _ := fixture(t)
	body, err := web.Sites[0].WellKnownManifest(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{`"site"`, `"pages"`, web.Sites[0].Domain} {
		if !contains(string(body), needle) {
			t.Errorf("manifest missing %q: %s", needle, body)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
