// comparepages: a deep side-by-side dive into one site's landing page
// and one of its popular internal pages — structure, content mix,
// dependency depths, resource hints, security, trackers, and full HAR
// timing breakdowns. This is the per-site view behind the paper's §4–§6
// aggregates.
//
//	go run ./examples/comparepages [-domain <domain>]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/mimecat"
	"repro/internal/world"
)

func main() {
	var (
		domain = flag.String("domain", "", "site to inspect (default: rank 3)")
		seed   = flag.Int64("seed", 2020, "seed")
	)
	flag.Parse()

	// A 36-site world bootstraps the top 50 sites into its web.
	w, err := world.Build(world.Config{
		Seed: *seed, Universe: 2000, Sites: 36, URLsPerSite: 10, MinResults: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	web := w.Web

	site := web.Sites[2]
	if *domain != "" {
		s, ok := web.SiteByDomain(*domain)
		if !ok {
			log.Fatalf("unknown domain %q", *domain)
		}
		site = s
	}

	fmt.Printf("site %s  (rank %d, %s, origin %s, CDN %q)\n\n",
		site.Domain, site.Rank, site.Category, site.Origin, site.Profile.CDNProvider)

	// The two pages are a one-site list, measured by the study engine
	// exactly as a study measures them: the landing page's timings are
	// medians over its repeated fetches, the internal page is loaded
	// once.
	study, err := core.NewStudy(web, core.StudyConfig{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	res, err := study.Run(&hispar.List{Name: "compare", Sets: []hispar.URLSet{{
		Domain: site.Domain, Rank: site.Rank,
		Landing: site.Landing().URL(), Internal: []string{site.TopInternal(1)[0].URL()},
	}}})
	if err != nil {
		log.Fatal(err)
	}
	landing, internal := &res.Sites[0].Landing, &res.Sites[0].Internal[0]

	row := func(name string, f func(m *core.PageMeasurement) string) {
		fmt.Printf("%-28s %-24s %s\n", name, f(landing), f(internal))
	}
	fmt.Printf("%-28s %-24s %s\n", "", "LANDING", "INTERNAL")
	row("url", func(m *core.PageMeasurement) string { return shorten(m.URL) })
	row("size", func(m *core.PageMeasurement) string { return fmt.Sprintf("%.2f MB", float64(m.Bytes)/1e6) })
	row("objects", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d", m.Objects) })
	row("PLT (first paint)", func(m *core.PageMeasurement) string { return m.PLT.Round(time.Millisecond).String() })
	row("speed index", func(m *core.PageMeasurement) string { return m.SpeedIndex.Round(time.Millisecond).String() })
	row("onLoad", func(m *core.PageMeasurement) string { return m.OnLoad.Round(time.Millisecond).String() })
	row("JS bytes", func(m *core.PageMeasurement) string { return fmt.Sprintf("%.0f%%", 100*m.JSFraction()) })
	row("image bytes", func(m *core.PageMeasurement) string { return fmt.Sprintf("%.0f%%", 100*m.ImageFraction()) })
	row("HTML/CSS bytes", func(m *core.PageMeasurement) string { return fmt.Sprintf("%.0f%%", 100*m.HTMLCSSFraction()) })
	row("non-cacheable objects", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d", m.NonCacheable) })
	row("CDN bytes", func(m *core.PageMeasurement) string { return fmt.Sprintf("%.0f%%", 100*m.CDNByteFraction()) })
	row("CDN hits/misses (X-Cache)", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d/%d", m.CDNHits, m.CDNMisses) })
	row("unique domains", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d", m.UniqueDomains) })
	row("resource hints", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d", m.Hints) })
	row("handshakes", func(m *core.PageMeasurement) string {
		return fmt.Sprintf("%d (%s)", m.Handshakes, m.HandshakeTime.Round(time.Millisecond))
	})
	row("tracking requests", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d", m.TrackerRequests) })
	row("third parties", func(m *core.PageMeasurement) string { return fmt.Sprintf("%d", len(m.ThirdParties)) })
	row("scheme / mixed content", func(m *core.PageMeasurement) string { return fmt.Sprintf("%s / %v", m.Scheme, m.MixedContent) })
	row("objects at depth 2+", func(m *core.PageMeasurement) string {
		n := 0
		for d := 2; d < len(m.DepthCounts); d++ {
			n += m.DepthCounts[d]
		}
		return fmt.Sprintf("%d %v", n, m.DepthCounts)
	})

	fmt.Println("\ncontent mix detail (bytes):")
	for _, cat := range mimecat.All() {
		l := landing.ContentBytes[cat]
		i := internal.ContentBytes[cat]
		if l == 0 && i == 0 {
			continue
		}
		fmt.Printf("  %-12s %10d  %10d\n", cat, l, i)
	}
}

func shorten(u string) string {
	if len(u) > 24 {
		return u[:21] + "..."
	}
	return u
}
