package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/stats"
)

// RunFig4a reproduces Fig 4a: non-cacheable objects per page type.
// Paper: 66% of H1K sites have landing pages with more non-cacheable
// objects (40% more in the median), while the cacheable-bytes fraction
// is similar for both page types.
func RunFig4a(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig4a", Title: "Non-cacheable objects (Fig 4a)"}
	d := deltas(res.Sites, mNonCache)
	r.addRow("frac sites landing more non-cacheable", "0.66", fracPositive(d), "%.2f")
	r.addRow("median ratio non-cacheable L/I", "1.40", stats.Median(ratios(res.Sites, mNonCache)), "%.2f")
	lFrac := stats.Median(landingValues(res.Sites, func(p *core.PageMeasurement) float64 { return p.CacheableByteFraction() }))
	iFrac := stats.Median(internalValues(res.Sites, func(p *core.PageMeasurement) float64 { return p.CacheableByteFraction() }))
	r.addRow("median cacheable-bytes frac landing", "similar to internal", lFrac, "%.2f")
	r.addRow("median cacheable-bytes frac internal", "similar to landing", iFrac, "%.2f")
	r.addSeries("H1K L.#nc-I.#nc", cdfPoints(d, 33))
	return r, nil
}

// RunFig4b reproduces Fig 4b: the fraction of bytes delivered via CDNs,
// plus the CDN cache-hit differential. Paper: for 57% of sites the
// landing page has a higher CDN-byte fraction (13% more in the median);
// cache hits for landing-page objects are ~16% higher than for
// internal-page objects.
func RunFig4b(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig4b", Title: "CDN bytes and cache hits (Fig 4b)"}
	d := deltas(res.Sites, mCDNFrac)
	r.addRow("frac sites landing higher CDN frac", "0.57", fracPositive(d), "%.2f")
	r.addRow("median ratio CDN frac L/I", "1.13", stats.Median(ratios(res.Sites, mCDNFrac)), "%.2f")

	hitRate := func(landing bool) float64 {
		hits, total := 0, 0
		for i := range res.Sites {
			pages := res.Sites[i].Internal
			if landing {
				pages = []core.PageMeasurement{res.Sites[i].Landing}
			}
			for j := range pages {
				hits += pages[j].CDNHits
				total += pages[j].CDNHits + pages[j].CDNMisses
			}
		}
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	lHit, iHit := hitRate(true), hitRate(false)
	rel := 0.0
	if iHit > 0 {
		rel = lHit/iHit - 1
	}
	r.addRow("X-Cache hit rate landing", "higher", lHit, "%.2f")
	r.addRow("X-Cache hit rate internal", "lower", iHit, "%.2f")
	r.addRow("landing hits higher by", "0.16", rel, "%.2f")
	r.addSeries("H1K L.CDNfrac-I.CDNfrac", cdfPoints(d, 33))
	return r, nil
}

// RunFig4c reproduces Fig 4c: the byte-level content mix. Paper
// (medians): JS is 45% of landing bytes vs 50% of internal (a 10%
// relative increase); internal pages carry 22% more HTML/CSS bytes;
// landing pages carry 36% more image bytes; KS p ≪ 1e−5 for all three.
func RunFig4c(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig4c", Title: "Content mix (Fig 4c)"}
	js := func(p *core.PageMeasurement) float64 { return p.JSFraction() }
	img := func(p *core.PageMeasurement) float64 { return p.ImageFraction() }
	hc := func(p *core.PageMeasurement) float64 { return p.HTMLCSSFraction() }

	ljs, ijs := landingValues(res.Sites, js), internalValues(res.Sites, js)
	limg, iimg := landingValues(res.Sites, img), internalValues(res.Sites, img)
	lhc, ihc := landingValues(res.Sites, hc), internalValues(res.Sites, hc)

	r.addRow("median JS frac landing", "0.45", stats.Median(ljs), "%.2f")
	r.addRow("median JS frac internal", "0.50", stats.Median(ijs), "%.2f")
	r.addRow("internal HTML/CSS higher by", "0.22", stats.Median(ihc)/stats.Median(lhc)-1, "%.2f")
	r.addRow("landing image higher by", "0.36", stats.Median(limg)/stats.Median(iimg)-1, "%.2f")
	r.addRow("KS p JS", "<<1e-5", ksP(ljs, ijs), "%.2g")
	r.addRow("KS p image", "<<1e-5", ksP(limg, iimg), "%.2g")
	r.addRow("KS p HTML/CSS", "<<1e-5", ksP(lhc, ihc), "%.2g")
	r.addSeries("landing JS frac", cdfPoints(ljs, 25))
	r.addSeries("internal JS frac", cdfPoints(ijs, 25))
	r.addSeries("landing IMG frac", cdfPoints(limg, 25))
	r.addSeries("internal IMG frac", cdfPoints(iimg, 25))
	return r, nil
}

// RunFig5 reproduces Fig 5: multi-origin content. Paper: 67% of H1K
// sites have landing pages fetching content from more unique domains
// (29% more in the median).
func RunFig5(ctx *Context) (*Report, error) {
	res, err := ctx.Study()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig5", Title: "Multi-origin content (Fig 5)"}
	d := deltas(res.Sites, mDomains)
	r.addRow("frac sites landing more domains", "0.67", fracPositive(d), "%.2f")
	r.addRow("median ratio domains L/I", "1.29", stats.Median(ratios(res.Sites, mDomains)), "%.2f")
	r.addRow("median landing domains", "~20-30 (fig)", stats.Median(landingValues(res.Sites, mDomains)), "%.0f")
	r.addSeries("H1K L.#domains-I.#domains", cdfPoints(d, 33))
	return r, nil
}

// RunDNSHitRate reproduces the §5.3 resolver experiment: two consecutive
// queries per domain for the 5K most popular domains, first-query hit
// labelled by latency comparison. Paper: ~30% hits at the local (ISP)
// resolver, ~20% at the fragmented public resolver — low because of
// short request-routing TTLs and public-resolver cache fragmentation.
func RunDNSHitRate(ctx *Context) (*Report, error) {
	u := ctx.World().Universe
	entries := u.Top(ctx.Cfg.DNSProbeTop)
	hosts := make([]string, len(entries))
	for i, e := range entries {
		hosts[i] = "www." + e.Domain
	}
	pop := dnssim.ZipfPopularity(hosts, 0.9)

	// Authority with CDN-era TTLs (§5.3): most popular hostnames are
	// request-routed with short TTLs; the rest use conventional ones.
	// Short TTLs are what keep resolver hit rates low despite Zipf
	// popularity.
	auth := dnssim.AuthorityFunc(func(host string) (dnssim.Record, bool) {
		var h uint32 = 2166136261
		for i := 0; i < len(host); i++ {
			h = (h ^ uint32(host[i])) * 16777619
		}
		ttl := 60 * time.Second
		switch h % 10 {
		case 0:
			ttl = time.Hour
		case 1, 2:
			ttl = 5 * time.Minute
		case 3:
			ttl = 30 * time.Second
		}
		return dnssim.Record{Host: host, Addr: dnssim.SyntheticAddr(host), TTL: ttl}, true
	})
	mk := func(name string, shards int, clientRTT time.Duration, rate float64, seed int64) *dnssim.Resolver {
		return dnssim.NewResolver(dnssim.ResolverConfig{
			Name:          name,
			Seed:          seed,
			ClientRTT:     clientRTT,
			UpstreamTime:  80 * time.Millisecond,
			Shards:        shards,
			WarmQueryRate: rate,
		}, auth, nil)
	}
	// The public resolver serves a larger population (≈4× the ISP's
	// query stream here) but fragments its cache across 8 backends, so
	// each backend sees only half the ISP's per-name rate.
	local := mk("isp", 1, 3*time.Millisecond, 3, ctx.Cfg.Seed+1)
	public := mk("public", 8, 18*time.Millisecond, 12, ctx.Cfg.Seed+2)

	r := &Report{ID: "dns", Title: "Resolver cache hit rates (§5.3)"}
	lh := dnssim.HitRateProbe(local, hosts, pop, 25*time.Millisecond)
	ph := dnssim.HitRateProbe(public, hosts, pop, 25*time.Millisecond)
	r.addRow("local resolver hit rate", "~0.30", lh, "%.2f")
	r.addRow("public resolver hit rate", "~0.20", ph, "%.2f")
	return r, nil
}
