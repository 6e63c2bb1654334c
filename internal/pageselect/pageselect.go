// Package pageselect implements the internal-page selection strategies
// the paper discusses: search-engine results (Hispar's choice, §3),
// recursive crawling and monkey testing (what the few internal-page-aware
// studies in the §2 survey did), and publisher-provided Well-Known
// manifests (§7). It also scores how *representative* each strategy's
// sample is — how closely the sample's medians track the site's full page
// pool.
package pageselect

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/webgen"
)

// Strategy selects up to n internal pages of a site.
type Strategy interface {
	Name() string
	Select(web *webgen.Web, site *webgen.Site, n int) ([]*webgen.Page, error)
}

// SearchTopN is Hispar's strategy: the most-visited pages according to a
// search engine.
type SearchTopN struct {
	Engine *search.Engine
}

// Name implements Strategy.
func (SearchTopN) Name() string { return "search" }

// Select implements Strategy.
func (s SearchTopN) Select(web *webgen.Web, site *webgen.Site, n int) ([]*webgen.Page, error) {
	results, err := s.Engine.Site(site.Domain, n+1)
	if err != nil {
		return nil, err
	}
	var out []*webgen.Page
	for _, r := range results {
		p, ok := web.PageByURL(r.URL)
		if !ok || p.IsLanding() {
			continue
		}
		out = append(out, p)
		if len(out) == n {
			break
		}
	}
	return out, nil
}

// RandomCrawl crawls the site and samples uniformly — the "recursively
// crawl a web site" approach of §2's internal-page-aware studies.
type RandomCrawl struct {
	Seed int64
}

// crawlPages bounds RandomCrawl's crawl of a site.
const crawlPages = 400

// Name implements Strategy.
func (RandomCrawl) Name() string { return "crawl" }

// Select implements Strategy.
func (c RandomCrawl) Select(web *webgen.Web, site *webgen.Site, n int) ([]*webgen.Page, error) {
	res, err := crawler.Crawl(web, site.Landing(), crawler.Config{MaxPages: crawlPages})
	if err != nil {
		return nil, err
	}
	pool := res.InternalPages()
	rng := detrand.New(c.Seed ^ int64(len(site.Domain)))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if n > len(pool) {
		n = len(pool)
	}
	return pool[:n], nil
}

// Monkey performs random click sessions from the landing page — "monkey
// testing (e.g., randomly clicking buttons and links)" per §2.
type Monkey struct {
	Seed int64
}

// clicksPerSession bounds one Monkey session's walk.
const clicksPerSession = 6

// Name implements Strategy.
func (Monkey) Name() string { return "monkey" }

// Select implements Strategy.
func (m Monkey) Select(web *webgen.Web, site *webgen.Site, n int) ([]*webgen.Page, error) {
	rng := detrand.New(m.Seed ^ int64(len(site.Domain))*977)
	seen := make(map[int]bool)
	var out []*webgen.Page
	// Repeated sessions until enough distinct pages are visited. Each
	// session starts at the landing page and clicks random links.
	for session := 0; len(out) < n && session < n*6; session++ {
		cur := site.Landing()
		for c := 0; c < clicksPerSession; c++ {
			model := cur.Build()
			links := model.Links()
			if len(links) == 0 {
				break
			}
			link := links[rng.Intn(len(links))]
			next, ok := web.PageByURL(link)
			if !ok || next.Site != site {
				continue
			}
			cur = next
			if !cur.IsLanding() && !seen[cur.Index] {
				seen[cur.Index] = true
				out = append(out, cur)
				if len(out) == n {
					break
				}
			}
		}
	}
	return out, nil
}

// WellKnown fetches the publisher's self-declared benchmark pages (§7).
type WellKnown struct{}

// Name implements Strategy.
func (WellKnown) Name() string { return "well-known" }

// Select implements Strategy.
func (WellKnown) Select(web *webgen.Web, site *webgen.Site, n int) ([]*webgen.Page, error) {
	pages := site.PublisherSample(n)
	if len(pages) == 0 {
		return nil, fmt.Errorf("pageselect: %s publishes no manifest", site.Domain)
	}
	return pages, nil
}

// All returns the four strategies with shared defaults.
func All(engine *search.Engine, seed int64) []Strategy {
	return []Strategy{
		SearchTopN{Engine: engine},
		RandomCrawl{Seed: seed},
		Monkey{Seed: seed},
		WellKnown{},
	}
}

// Score measures a strategy sample's representativeness for one site.
type Score struct {
	Strategy string
	Site     string
	Selected int
	// ObjectsErr and BytesErr are |median(sample)/median(pool) − 1| for
	// object count and page size over the site's full internal pool.
	ObjectsErr float64
	BytesErr   float64
	// PopularityShare is the sample's share of the pool's total visit
	// weight: high for popularity-biased strategies (search), low for
	// uniform ones.
	PopularityShare float64
}

// Pool summarizes one site's full internal-page pool, the reference
// every strategy's sample of that site is scored against.
type Pool struct {
	Site *webgen.Site
	// Median object count and page size over the pool, which is
	// subsampled to its first 300 pages to cap cost on huge sites.
	medianObjs, medianBytes float64
	// totalWeight is the visit weight of the whole pool.
	totalWeight float64
}

// NewPool summarizes site's internal-page pool.
func NewPool(site *webgen.Site) *Pool {
	pool := site.InternalPages()
	objs, bytes := pageStats(pool[:min(len(pool), 300)])
	p := &Pool{Site: site, medianObjs: stats.Median(objs), medianBytes: stats.Median(bytes)}
	for _, page := range pool {
		p.totalWeight += page.VisitWeight()
	}
	return p
}

// Score scores a strategy's sample of the pool's site against the pool.
func (p *Pool) Score(strategyName string, sample []*webgen.Page) Score {
	sampObjs, sampBytes := pageStats(sample)
	var sampW float64
	for _, page := range sample {
		sampW += page.VisitWeight()
	}
	share := 0.0
	if p.totalWeight > 0 {
		share = sampW / p.totalWeight
	}
	return Score{
		Strategy:        strategyName,
		Site:            p.Site.Domain,
		Selected:        len(sample),
		ObjectsErr:      relErr(stats.Median(sampObjs), p.medianObjs),
		BytesErr:        relErr(stats.Median(sampBytes), p.medianBytes),
		PopularityShare: share,
	}
}

func pageStats(pages []*webgen.Page) (objs, bytes []float64) {
	for _, p := range pages {
		m := p.Build()
		objs = append(objs, float64(len(m.Objects)))
		var b int64
		for _, o := range m.Objects {
			b += o.Size
		}
		bytes = append(bytes, float64(b))
	}
	return objs, bytes
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got/want - 1)
}

// Summary aggregates scores per strategy.
type Summary struct {
	Strategy        string
	Sites           int
	MeanObjectsErr  float64
	MeanBytesErr    float64
	MeanPopulShare  float64
	MedianSelection float64
}

// Summarize groups scores by strategy.
func Summarize(scores []Score) []Summary {
	byStrat := make(map[string][]Score)
	for _, s := range scores {
		byStrat[s.Strategy] = append(byStrat[s.Strategy], s)
	}
	names := make([]string, 0, len(byStrat))
	for n := range byStrat {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Summary
	for _, n := range names {
		ss := byStrat[n]
		var objs, bytes, share, sel []float64
		for _, s := range ss {
			objs = append(objs, s.ObjectsErr)
			bytes = append(bytes, s.BytesErr)
			share = append(share, s.PopularityShare)
			sel = append(sel, float64(s.Selected))
		}
		out = append(out, Summary{
			Strategy:        n,
			Sites:           len(ss),
			MeanObjectsErr:  stats.Mean(objs),
			MeanBytesErr:    stats.Mean(bytes),
			MeanPopulShare:  stats.Mean(share),
			MedianSelection: stats.Median(sel),
		})
	}
	return out
}
