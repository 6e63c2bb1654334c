// crawlsite: run the paper's limited exhaustive crawl (§4) on one large
// synthetic site — follow links from the landing page until thousands of
// unique URLs are found, sample internal pages, and show how widely they
// vary in size and object count (Figs 3b/3c).
//
//	go run ./examples/crawlsite
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/dnssim"
	"repro/internal/stats"
	"repro/internal/webgen"
)

func main() {
	const seed = 2022
	web := webgen.Generate(webgen.Config{Seed: seed, Sites: []webgen.SiteSeed{
		{Domain: "broadsheet-times.com", Rank: 67, PoolSize: 3000, Category: webgen.CatNews},
	}})
	site := web.Sites[0]

	res, err := crawler.Crawl(web, site.Landing(), crawler.Config{
		MaxPages:      2500,
		PolitenessGap: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d unique pages of %s (virtual time %v at a 5s politeness gap)\n\n",
		len(res.Pages), site.Domain, res.Elapsed)

	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: seed, WarmQueryRate: 0.8,
	}, web.Authority(), nil)
	b, err := browser.New(browser.Config{
		Seed:     seed,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), seed)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	internal := res.InternalPages()
	rng := detrand.New(seed)
	rng.Shuffle(len(internal), func(i, j int) { internal[i], internal[j] = internal[j], internal[i] })
	if len(internal) > 500 {
		internal = internal[:500]
	}
	var objs, sizes []float64
	for _, p := range internal {
		m := p.Build()
		l, err := b.Load(m, 0)
		if err != nil {
			log.Fatal(err)
		}
		objs = append(objs, float64(l.ObjectCount()))
		sizes = append(sizes, float64(l.TotalBytes())/1e6)
	}
	lm := site.Landing().Build()
	ll, err := b.Load(lm, 0)
	if err != nil {
		log.Fatal(err)
	}

	so, ss := stats.SortedInPlace(objs), stats.SortedInPlace(sizes)
	fmt.Printf("sampled %d internal pages:\n", len(internal))
	fmt.Printf("  #objects  p5=%.0f p25=%.0f p50=%.0f p75=%.0f p95=%.0f   (landing: %d)\n",
		so.Quantile(.05), so.Quantile(.25), so.Median(),
		so.Quantile(.75), so.Quantile(.95), ll.ObjectCount())
	fmt.Printf("  size (MB) p5=%.1f p25=%.1f p50=%.1f p75=%.1f p95=%.1f   (landing: %.1f)\n",
		ss.Quantile(.05), ss.Quantile(.25), ss.Median(),
		ss.Quantile(.75), ss.Quantile(.95), float64(ll.TotalBytes())/1e6)
	fmt.Println("\nInternal pages differ not only from the landing page but from one")
	fmt.Println("another — a random 19-page subset would shift these medians only a little.")
}
