package survey

import (
	"fmt"

	"repro/internal/detrand"
)

// GenerateCorpus builds a synthetic 920-paper corpus whose ground truth
// matches the survey dataset exactly: per venue, the right number of
// papers using top lists with the right revision-score split, plus
// false-positive papers (consumer-device mentions, related-work-only
// citations) for the scanner to weed out. Running Tabulate over the
// corpus reproduces Table 1.
func GenerateCorpus(seed int64) []*Paper {
	rng := detrand.New(seed)
	var corpus []*Paper
	add := func(v Venue, text string, uses bool, rev Revision, internal bool) {
		year := 2015 + rng.Intn(5)
		corpus = append(corpus, &Paper{
			Venue:           v,
			Year:            year,
			Title:           fmt.Sprintf("%s-%d paper %d", v, year, len(corpus)),
			Text:            text,
			TrueUsesTopList: uses,
			TrueRevision:    rev,
			UsesInternal:    internal,
		})
	}
	lists := []string{"Alexa", "Majestic", "Umbrella", "Quantcast", "Tranco"}
	pick := func() string { return lists[rng.Intn(len(lists))] }

	for _, row := range Dataset() {
		// Papers using a top list, split by revision score. A fixed
		// fraction of the "no revision" papers use internal pages (the
		// paper found 15/119 did).
		internalQuota := row.None / 3
		for i := 0; i < row.None; i++ {
			if i < internalQuota {
				add(row.Venue, fmt.Sprintf(
					"We rank sites with the %s top list and analyze browsing traces of real users, "+
						"so our dataset covers internal pages of each web site.", pick()),
					true, NoRevision, true)
			} else if i%2 == 0 {
				add(row.Venue, fmt.Sprintf(
					"We use the %s list, but this study uses the top list only to rank web sites "+
						"observed in our passive traces.", pick()),
					true, NoRevision, false)
			} else {
				add(row.Venue, fmt.Sprintf(
					"Our dataset starts from the %s ranking and mixes in data from other sources "+
						"including zone files and certificate logs.", pick()),
					true, NoRevision, false)
			}
		}
		for i := 0; i < row.Minor; i++ {
			add(row.Venue, fmt.Sprintf(
				"We evaluate our system on sites from the %s list; one evaluation uses landing pages "+
					"while three others are agnostic to page types.", pick()),
				true, MinorRevision, false)
		}
		for i := 0; i < row.Major; i++ {
			add(row.Venue, fmt.Sprintf(
				"We propose a web page delivery optimization and measure the page-load time "+
					"improvement on the %s top sites, using landing pages only.", pick()),
				true, MajorRevision, false)
		}
		// False positives: device mentions and related-work citations.
		fp := 2 + rng.Intn(3)
		for i := 0; i < fp; i++ {
			if i%2 == 0 {
				add(row.Venue, "Our smart-home testbed includes an Alexa Echo voice assistant device.",
					false, NoRevision, false)
			} else {
				add(row.Venue, "In related work, prior work discusses the Tranco and Majestic rankings.",
					false, NoRevision, false)
			}
		}
		// Remaining papers never mention a top list.
		rest := row.Publications - row.UsingTopList - fp
		for i := 0; i < rest; i++ {
			add(row.Venue, "We study datacenter congestion control with a custom testbed.",
				false, NoRevision, false)
		}
	}
	rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
	return corpus
}
