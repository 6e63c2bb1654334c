package webgen

import "encoding/json"

// PublisherSample returns the site's self-curated representative internal
// pages — the §7 "Involve publishers" proposal: each publisher exposes a
// benchmark set spanning its content (implemented as a weight-stratified
// sample of the page pool), to be published at a Well-Known URI.
func (s *Site) PublisherSample(n int) []*Page {
	if n <= 0 || s.PoolSize() == 0 {
		return nil
	}
	order := s.topByVisitWeight(s.PoolSize())
	if n > len(order) {
		n = len(order)
	}
	// Quantile-spaced picks over the popularity ordering: the benchmark
	// covers head, torso, and tail content rather than only hits.
	out := make([]*Page, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.PageAt(order[i*(len(order)-1)/maxInt(1, n-1)].idx))
	}
	return dedupePages(out)
}

func dedupePages(pages []*Page) []*Page {
	seen := make(map[int]bool, len(pages))
	out := pages[:0]
	for _, p := range pages {
		if !seen[p.Index] {
			seen[p.Index] = true
			out = append(out, p)
		}
	}
	return out
}

// WellKnownManifest renders the site's /.well-known/hispar.json payload.
func (s *Site) WellKnownManifest(n int) ([]byte, error) {
	type manifest struct {
		Site    string   `json:"site"`
		Purpose string   `json:"purpose"`
		Pages   []string `json:"pages"`
	}
	m := manifest{
		Site:    s.Domain,
		Purpose: "representative internal pages for web performance measurement",
	}
	for _, p := range s.PublisherSample(n) {
		m.Pages = append(m.Pages, p.URL())
	}
	return json.MarshalIndent(m, "", "  ")
}
