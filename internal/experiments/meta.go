package experiments

import (
	"fmt"

	"repro/internal/hispar"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/toplist"
	"repro/internal/webgen"
	"repro/internal/world"
)

// RunTable1 reproduces the survey (§2, Table 1 / Fig 1) two ways: it
// runs the term-matching + review pipeline over a generated 920-paper
// corpus and checks the tabulation against the curated dataset. Paper:
// 920 publications, 119 using top lists, revision split 41 no / 48 minor
// / 30 major — nearly two-thirds needing at least a minor revision.
func RunTable1(ctx *Context) (*Report, error) {
	corpus := survey.GenerateCorpus(ctx.Cfg.Seed)
	rows := survey.Tabulate(corpus)
	want := survey.Dataset()
	r := &Report{ID: "table1", Title: "Survey of web-perf. studies (Table 1)"}
	for i, row := range rows {
		w := want[i]
		r.addRow(fmt.Sprintf("%s pubs", row.Venue), fmt.Sprintf("%d", w.Publications), float64(row.Publications), "%.0f")
		r.addRow(fmt.Sprintf("%s using top list", row.Venue), fmt.Sprintf("%d", w.UsingTopList), float64(row.UsingTopList), "%.0f")
		r.addRow(fmt.Sprintf("%s major/minor/no", row.Venue),
			fmt.Sprintf("%d/%d/%d", w.Major, w.Minor, w.None),
			float64(row.Major*10000+row.Minor*100+row.None),
			"%.0f (encoded M*1e4+m*1e2+n)")
	}
	t := survey.Total(rows)
	r.addRow("total publications", "920", float64(t.Publications), "%.0f")
	r.addRow("total using top list", "119", float64(t.UsingTopList), "%.0f")
	r.addRow("needing revision fraction", "0.66", survey.NeedingRevisionFraction(rows), "%.2f")
	return r, nil
}

// RunStability reproduces the §3 stability analysis: ten weekly
// snapshots of the top-list universe, an H2K build per week, and the
// two-level churn metrics. Paper: ~20% mean weekly change in the web
// sites appearing in H2K (inherited from the Alexa top 5K), ~30% weekly
// churn of internal URLs at the bottom level, and ~41% mean weekly
// change in the Alexa top 100K; prior work reports ~10% daily change in
// the top 5K.
func RunStability(ctx *Context) (*Report, error) {
	cfg := ctx.Cfg
	u := toplist.NewUniverse(toplist.Config{Seed: cfg.Seed + 77, Size: cfg.StabilityUniverse})

	h2kSites := cfg.H2KSites
	bootstrapK := h2kSites * 7 / 5
	// The deep list must stay well inside the universe or boundary
	// saturation suppresses its churn.
	top100k := cfg.StabilityUniverse * 3 / 10
	if top100k > 100_000 {
		top100k = 100_000
	}

	var (
		siteChurns, urlChurns, a100kChurns, daily5kChurns []float64
		prevList                                          *hispar.List
		prev100k, prev5k                                  []toplist.Entry
	)
	for week := 0; week < cfg.StabilityWeeks; week++ {
		// Daily top-5K churn, averaged inside the week.
		for d := 0; d < 7; d++ {
			cur5k := u.Top(5000)
			if prev5k != nil {
				daily5kChurns = append(daily5kChurns, toplist.Churn(prev5k, cur5k))
			}
			prev5k = cur5k
			u.Step(1)
		}
		boot := u.Top(bootstrapK)
		cur100k := u.Top(top100k)
		if prev100k != nil {
			a100kChurns = append(a100kChurns, toplist.Churn(prev100k, cur100k))
		}
		prev100k = cur100k

		seeds := make([]webgen.SiteSeed, len(boot))
		for i, e := range boot {
			seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
		}
		web := webgen.Generate(webgen.Config{Seed: cfg.Seed, Week: week, Sites: seeds})
		eng := search.New(web, search.Config{EnglishOnly: true})
		list, _, err := hispar.Build(eng, boot, hispar.BuildConfig{
			Sites:       h2kSites,
			URLsPerSite: cfg.H2KPerSite,
			MinResults:  10,
			Name:        "H2K",
			Week:        week,
		})
		if err != nil {
			return nil, err
		}
		if prevList != nil {
			siteChurns = append(siteChurns, hispar.SiteChurn(prevList, list))
			urlChurns = append(urlChurns, hispar.InternalChurn(prevList, list))
		}
		prevList = list
	}

	r := &Report{ID: "stability", Title: "Hispar stability (§3)"}
	r.addRow("mean weekly H2K site churn", "0.20", stats.Mean(siteChurns), "%.2f")
	r.addRow("mean weekly internal-URL churn", "0.30", stats.Mean(urlChurns), "%.2f")
	r.addRow("mean weekly Alexa-100K churn", "0.41", stats.Mean(a100kChurns), "%.2f")
	r.addRow("mean daily top-5K churn", "0.10", stats.Mean(daily5kChurns), "%.2f")
	weeks := make([][2]float64, len(urlChurns))
	for i, c := range urlChurns {
		weeks[i] = [2]float64{float64(i + 1), c}
	}
	r.addSeries("weekly internal churn", weeks)
	return r, nil
}

// RunCost reproduces the §7 cost analysis: building a 100,000-URL list
// at $5 per 1000 queries. Paper: at least 10,000 queries (~$50) are
// needed; because many site: queries return fewer than 10 unique URLs,
// the realized cost is consistently around $70 per list; a 500-site,
// 50-URL study would cost under $20.
func RunCost(ctx *Context) (*Report, error) {
	cfg := ctx.Cfg
	// The H2K list is built over its own web, seeded apart from the
	// study's, from the same top list.
	w, err := world.Build(world.Config{
		Seed:        cfg.Seed,
		WebSeed:     cfg.Seed + 5,
		Sites:       cfg.H2KSites,
		URLsPerSite: cfg.H2KPerSite,
		MinResults:  10,
		Name:        "H2K",
	})
	if err != nil {
		return nil, err
	}
	list, st := w.List, w.Stats
	scale := 100_000 / float64(list.Pages())

	r := &Report{ID: "cost", Title: "List-building cost (§7)"}
	r.addRow("URLs in list", "100000", float64(list.Pages()), "%.0f")
	r.addRow("queries used (scaled to 100K URLs)", ">=10000", float64(st.Queries)*scale, "%.0f")
	r.addRow("cost USD (scaled to 100K URLs)", "~70", st.CostUSD*scale, "%.0f")
	r.addRow("sites dropped (few results)", "nonzero", float64(st.SitesDropped), "%.0f")

	// A 500-site, 50-URL study (half the "major revision" studies used
	// ≤500 sites). Scaled down with the context when it cannot fit the
	// bootstrap.
	small := 500
	if cfg.H2KSites < 1250 {
		small = cfg.H2KSites * 2 / 5
	}
	eng2 := search.New(w.Web, search.Config{EnglishOnly: true})
	_, st2, err := hispar.Build(eng2, w.Bootstrap, hispar.BuildConfig{
		Sites: small, URLsPerSite: 50, MinResults: 10, Name: "H500",
	})
	if err != nil {
		return nil, err
	}
	r.addRow("cost USD for 500-site/50-URL study", "<20", st2.CostUSD, "%.1f")
	return r, nil
}
