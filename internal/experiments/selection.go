package experiments

import (
	"fmt"

	"repro/internal/pageselect"
)

// RunSelection compares internal-page selection strategies (§7): the
// search-based choice Hispar makes, recursive crawling with uniform
// sampling, monkey testing, and publisher-provided Well-Known manifests.
// For each strategy it reports how far the sample's medians sit from the
// site's full page pool (representativeness) and how much of the site's
// user attention the sample covers (the popularity bias the paper
// *wants*, since measurements should reflect what users actually visit).
func RunSelection(ctx *Context) (*Report, error) {
	w := ctx.World()
	web, engine := w.Web, w.Search
	list, err := ctx.List()
	if err != nil {
		return nil, err
	}
	// A modest site subset: selection itself is cheap, but monkey testing
	// and crawling build many page models.
	k := 40
	if k > len(list.Sets) {
		k = len(list.Sets)
	}
	perSite := ctx.Cfg.PerSite - 1
	if perSite < 5 {
		perSite = 5
	}

	// Each site's pool is summarized once and scores every strategy.
	var pools []*pageselect.Pool
	for _, set := range list.Sets[:k] {
		if site, ok := web.SiteByDomain(set.Domain); ok {
			pools = append(pools, pageselect.NewPool(site))
		}
	}
	var scores []pageselect.Score
	for _, strat := range pageselect.All(engine, ctx.Cfg.Seed) {
		for _, pool := range pools {
			sample, err := strat.Select(web, pool.Site, perSite)
			if err != nil || len(sample) == 0 {
				continue
			}
			scores = append(scores, pool.Score(strat.Name(), sample))
		}
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("experiments: no selection scores produced")
	}

	r := &Report{ID: "selection", Title: "Internal-page selection strategies (§7)"}
	for _, s := range pageselect.Summarize(scores) {
		r.addRow(fmt.Sprintf("%s sites covered", s.Strategy), "n/a", float64(s.Sites), "%.0f")
		r.addRow(fmt.Sprintf("%s median-objects error", s.Strategy), "small for all", s.MeanObjectsErr, "%.3f")
		r.addRow(fmt.Sprintf("%s median-size error", s.Strategy), "small for all", s.MeanBytesErr, "%.3f")
		r.addRow(fmt.Sprintf("%s popularity share", s.Strategy), "highest for search", s.MeanPopulShare, "%.3f")
	}
	return r, nil
}
