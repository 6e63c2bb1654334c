package experiments

import (
	"fmt"

	"repro/internal/hispar"
	"repro/internal/whatif"
)

// RunAblation evaluates the §5 implications as counterfactuals: for each
// proposed optimization, how much faster do landing pages get vs internal
// pages? The paper's claims, which these rows quantify:
//
//   - §5.6: QUIC / TLS 1.3 / TCP Fast Open reduce handshake round trips;
//     landing pages perform ~25% more handshakes, so "ignoring internal
//     pages in the evaluation of such optimizations could exaggerate
//     their benefits".
//   - §5.4: dependency-aware delivery (Polaris, Vroom, Shandian) exploits
//     deep dependency graphs; landing pages have the more complex graphs,
//     so landing-page evaluations "may have overestimated the impact".
//   - §5.1: caching improvements benefit the page type whose objects are
//     popular at CDN edges — the landing page.
//   - §5.5: resource hints already favour landing pages; perfect hints
//     help internal pages too, but the asymmetry persists.
func RunAblation(ctx *Context) (*Report, error) {
	list, err := ctx.List()
	if err != nil {
		return nil, err
	}
	// Evaluate on the Ht50 ∪ Hb50 slice: both ends of the list, bounded
	// cost (the baseline and every scenario run the study over it).
	k := 50
	if k > len(list.Sets)/2 {
		k = len(list.Sets) / 2
	}
	sub := &hispar.List{Name: list.Name + "-ablation", Week: list.Week}
	sub.Sets = append(sub.Sets, list.Top(k).Sets...)
	sub.Sets = append(sub.Sets, list.Bottom(k).Sets...)

	ev := whatif.New(ctx.World().Web, ctx.StudyConfig())
	results, err := ev.EvaluateAll(sub)
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "ablation", Title: "What-if: optimization benefit by page type (§5 implications)"}
	for _, res := range results {
		name := res.Scenario.Name
		r.addRow(fmt.Sprintf("%s median PLT gain landing", name), "larger", res.MedianImprovement(true), "%.3f")
		r.addRow(fmt.Sprintf("%s median PLT gain internal", name), "smaller", res.MedianImprovement(false), "%.3f")
		r.addRow(fmt.Sprintf("%s PLT asymmetry (landing-internal)", name), ">0 for handshake/cache opts", res.Asymmetry(), "%+.3f")
		r.addRow(fmt.Sprintf("%s onLoad gain landing", name), "larger", res.MedianLoadImprovement(true), "%.3f")
		r.addRow(fmt.Sprintf("%s onLoad gain internal", name), "smaller", res.MedianLoadImprovement(false), "%.3f")
		r.addRow(fmt.Sprintf("%s onLoad asymmetry", name), ">0 for push/deep-graph opts", res.LoadAsymmetry(), "%+.3f")
	}
	return r, nil
}
