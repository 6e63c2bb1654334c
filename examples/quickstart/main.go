// Quickstart: generate a small synthetic web, build a Hispar-style list
// over it, load every page with the simulated browser, and print the
// paper's headline comparison — landing pages vs internal pages.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/world"
)

func main() {
	const seed = 2020

	// 1. The world at this seed, week 0: an Alexa-style top list to
	// bootstrap from, the web those sites live on, and the two-level list
	// discovered through the search engine — one landing page + up to 9
	// internal pages per site.
	w, err := world.Build(world.Config{
		Seed: seed, Universe: 2000, Sites: 50, URLsPerSite: 10, MinResults: 5, Name: "Hquick",
	})
	if err != nil {
		log.Fatal(err)
	}
	list, web := w.List, w.Web
	fmt.Printf("built %s: %d sites, %d pages (%d queries, $%.2f)\n\n",
		list.Name, len(list.Sets), list.Pages(), w.Stats.Queries, w.Stats.CostUSD)

	// 2. Measure every page: landing pages 5x cold-cache, internal once.
	study, err := core.NewStudy(web, core.StudyConfig{Seed: seed, LandingFetches: 5})
	if err != nil {
		log.Fatal(err)
	}
	res, err := study.Run(list)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The Jekyll-and-Hyde comparison.
	var sizeDeltas, objDeltas, pltDeltas []float64
	landingFaster := 0
	for i := range res.Sites {
		s := &res.Sites[i]
		sizeDeltas = append(sizeDeltas, s.Delta(func(p *core.PageMeasurement) float64 { return float64(p.Bytes) })/1e6)
		objDeltas = append(objDeltas, s.Delta(func(p *core.PageMeasurement) float64 { return float64(p.Objects) }))
		d := s.Delta(func(p *core.PageMeasurement) float64 { return p.PLT.Seconds() })
		pltDeltas = append(pltDeltas, d)
		if d < 0 {
			landingFaster++
		}
	}
	n := float64(len(res.Sites))
	fmt.Printf("landing larger than internal median:  %.0f%% of sites (median Δ %.2f MB)\n",
		100*frac(sizeDeltas, func(x float64) bool { return x > 0 }), stats.Median(sizeDeltas))
	fmt.Printf("landing has more objects:             %.0f%% of sites (median Δ %.0f objects)\n",
		100*frac(objDeltas, func(x float64) bool { return x > 0 }), stats.Median(objDeltas))
	fmt.Printf("landing loads faster (PLT):           %.0f%% of sites — despite being heavier\n",
		100*float64(landingFaster)/n)
	fmt.Println("\nThat asymmetry is the paper's point: a study that only measures")
	fmt.Println("landing pages measures Dr. Jekyll and never meets Mr. Hyde.")
}

func frac(xs []float64, pred func(float64) bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if pred(x) {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
