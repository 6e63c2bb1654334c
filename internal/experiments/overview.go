package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/hispar"
	"repro/internal/stats"
)

// RunFig2a reproduces Fig 2a: the CDF of L.size − I.size per site.
// Paper: 65% of H1K (54% of Ht30) sites have landing pages larger than
// the median of their internal pages; geometric-mean size ratio ≈ 1.34.
func RunFig2a(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig2a", Title: "Landing vs internal page size (Fig 2a)"}
	d := deltas(res.Sites, mBytes)
	dTop := deltas(TopSites(res, 30), mBytes)
	r.addRow("frac sites landing larger (H1K)", "0.65", fracPositive(d), "%.2f")
	r.addRow("frac sites landing larger (Ht30)", "0.54", fracPositive(dTop), "%.2f")
	r.addRow("geomean size ratio L/I", "1.34", stats.GeometricMean(ratios(res.Sites, mBytes)), "%.2f")
	r.addRow("frac internal >=2MB larger", "0.05", stats.FractionBelow(d, -2e6), "%.2f")
	r.addRow("frac internal >=2MB smaller", "0.20", 1-stats.FractionBelow(d, 2e6), "%.2f")
	mb := make([]float64, len(d))
	for i, v := range d {
		mb[i] = v / 1e6
	}
	r.addSeries("H1K L.size-I.size (MB)", cdfPoints(mb, 33))
	return r, nil
}

// RunFig2b reproduces Fig 2b: the CDF of L.#objects − I.#objects.
// Paper: 68% (H1K) / 57% (Ht30) of sites have more objects on the
// landing page; geometric-mean object ratio ≈ 1.24; 5% of sites have
// landing pages with fewer objects yet larger size.
func RunFig2b(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig2b", Title: "Landing vs internal object count (Fig 2b)"}
	d := deltas(res.Sites, mObjects)
	r.addRow("frac sites landing more objects (H1K)", "0.68", fracPositive(d), "%.2f")
	r.addRow("frac sites landing more objects (Ht30)", "0.57", fracPositive(deltas(TopSites(res, 30), mObjects)), "%.2f")
	r.addRow("frac sites landing more objects (Hb100)", "0.68", fracPositive(deltas(BottomSites(res, 100), mObjects)), "%.2f")
	r.addRow("geomean object ratio L/I", "1.24", stats.GeometricMean(ratios(res.Sites, mObjects)), "%.2f")
	fewerButLarger := 0
	for i := range res.Sites {
		if res.Sites[i].Delta(mObjects) < 0 && res.Sites[i].Delta(mBytes) > 0 {
			fewerButLarger++
		}
	}
	r.addRow("frac fewer objects but larger", "0.05", float64(fewerButLarger)/float64(len(res.Sites)), "%.2f")
	r.addSeries("H1K L.#obj-I.#obj", cdfPoints(d, 33))
	return r, nil
}

// RunFig2c reproduces Fig 2c: the CDF of L.PLT − I.PLT. Paper: landing
// pages load faster for 56% of H1K, 77% of Ht30, and 59% of Hb100 —
// despite being larger and having more objects.
func RunFig2c(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig2c", Title: "Landing vs internal PLT (Fig 2c)"}
	d := deltas(res.Sites, mPLT) // negative = landing faster
	fasterFrac := func(sites []core.SiteResult) float64 {
		n := 0
		for i := range sites {
			if sites[i].Delta(mPLT) < 0 {
				n++
			}
		}
		if len(sites) == 0 {
			return 0
		}
		return float64(n) / float64(len(sites))
	}
	r.addRow("frac sites landing faster (H1K)", "0.56", fasterFrac(res.Sites), "%.2f")
	r.addRow("frac sites landing faster (Ht30)", "0.77", fasterFrac(TopSites(res, 30)), "%.2f")
	r.addRow("frac sites landing faster (Hb100)", "0.59", fasterFrac(BottomSites(res, 100)), "%.2f")
	r.addRow("median L.PLT (s)", "~2 (typical)", stats.Median(landingValues(res.Sites, mPLT)), "%.2f")
	r.addSeries("H1K L.PLT-I.PLT (s)", cdfPoints(d, 33))
	return r, nil
}

// RunFig3a reproduces Fig 3a: Speed Index CDFs over Ht30. Paper: content
// on internal pages displays 14% more slowly than on landing pages in
// the median (KS p = 0.01).
func RunFig3a(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	top := TopSites(res, 30)
	r := &Report{ID: "fig3a", Title: "Speed Index, Ht30 (Fig 3a)"}
	l := landingValues(top, mSI)
	in := internalValues(top, mSI)
	ml, mi := stats.Median(l), stats.Median(in)
	slower := 0.0
	if ml > 0 {
		slower = mi/ml - 1
	}
	r.addRow("median internal SI slower by", "0.14", slower, "%.2f")
	r.addRow("median landing SI (s)", "~1-2 (fig)", ml, "%.2f")
	r.addRow("KS p-value", "0.01", ksP(l, in), "%.3f")
	r.addSeries("landing SI (s)", cdfPoints(l, 25))
	r.addSeries("internal SI (s)", cdfPoints(in, 25))
	return r, nil
}

// RunFig3bc reproduces Figs 3b/3c: the limited exhaustive crawl of five
// sites (Wikipedia, Twitter, NYTimes, HowStuffWorks, an academic site):
// recursively crawl ≥5000 unique URLs per site, sample 500 internal
// pages, fetch each once (landing 10×), and report the spread of object
// counts and page sizes. Paper: internal pages differ substantially both
// from landing pages and from one another; a random subset of 19 pages
// would not change the medians much.
func RunFig3bc(ctx *Context) (*Report, error) {
	web := ctx.World().Web
	r := &Report{ID: "fig3bc", Title: "Limited exhaustive crawl (Figs 3b/3c)"}
	// One URL set per crawl site: its landing page and the sampled
	// internal pages, measured by the study engine like any list.
	domains := CrawlDomains()
	crawled := make([]int, len(domains))
	list := &hispar.List{Name: "crawl"}
	for i, domain := range domains {
		site, ok := web.SiteByDomain(domain)
		if !ok {
			return nil, fmt.Errorf("experiments: crawl site %s missing", domain)
		}
		cres, err := crawler.Crawl(web, site.Landing(), crawler.Config{MaxPages: ctx.Cfg.CrawlPages})
		if err != nil {
			return nil, err
		}
		crawled[i] = len(cres.Pages)
		internal := cres.InternalPages()
		rng := detrand.New(ctx.Cfg.Seed + int64(i))
		rng.Shuffle(len(internal), func(a, b int) { internal[a], internal[b] = internal[b], internal[a] })
		sample := internal
		if len(sample) > ctx.Cfg.CrawlSample {
			sample = sample[:ctx.Cfg.CrawlSample]
		}
		set := hispar.URLSet{Domain: domain, Rank: site.Rank, Landing: site.Landing().URL()}
		for _, p := range sample {
			set.Internal = append(set.Internal, p.URL())
		}
		list.Sets = append(list.Sets, set)
	}
	st, err := core.NewStudy(web, ctx.StudyConfig())
	if err != nil {
		return nil, err
	}
	res, err := st.Run(list)
	if err != nil {
		return nil, err
	}
	if len(res.Sites) != len(domains) {
		return nil, fmt.Errorf("experiments: crawl study measured %d of %d sites", len(res.Sites), len(domains))
	}

	labels := []string{"WP", "TW", "NY", "HS", "AC"}
	for i := range res.Sites {
		s := &res.Sites[i]
		var objs, sizes []float64
		for j := range s.Internal {
			objs = append(objs, float64(s.Internal[j].Objects))
			sizes = append(sizes, float64(s.Internal[j].Bytes)/1e6)
		}
		label := labels[i]
		r.addRow(label+" pages crawled", ">=5000 URLs", float64(crawled[i]), "%.0f")
		r.addRow(label+" internal #objects p25/p50/p75", "wide spread (fig)", stats.Median(objs), "%.0f (median)")
		r.addRow(label+" internal size p50 (MB)", "wide spread (fig)", stats.Median(sizes), "%.2f")
		r.addRow(label+" landing #objects", "differs from internal", float64(s.Landing.Objects), "%.0f")
		r.addSeries(label+" #objects quartiles", quartileSeries(objs))
		r.addSeries(label+" size quartiles (MB)", quartileSeries(sizes))
	}
	return r, nil
}

// quartileSeries encodes (q, value) points for a box-plot-like summary.
// One sort serves all five quantiles (stats.Quantile would re-copy and
// re-sort the sample per call).
func quartileSeries(xs []float64) [][2]float64 {
	if len(xs) == 0 {
		return nil
	}
	s := stats.NewSorted(xs)
	qs := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	out := make([][2]float64, 0, len(qs))
	for _, q := range qs {
		out = append(out, [2]float64{q, s.Quantile(q)})
	}
	return out
}
