// Package crawler implements a polite breadth-first site crawler over the
// synthetic web. It reproduces the paper's limited exhaustive crawl (§4):
// start at the landing page, follow links recursively until enough unique
// internal URLs are discovered, with a minimum virtual-time gap between
// consecutive fetches (the paper used ≥5s) to bound server load.
package crawler

import (
	"fmt"
	"time"

	"repro/internal/urlx"
	"repro/internal/webgen"
)

// politenessGap is the virtual-time spacing between fetches.
const politenessGap = 5 * time.Second

// Config parameterizes a crawl. The crawl stays on the start page's
// site, recording off-site links without following them, and skips the
// pages robots.txt excludes (§3 ethics).
type Config struct {
	// MaxPages stops the crawl after this many unique pages.
	MaxPages int
}

// Result is the outcome of a crawl.
type Result struct {
	Start *webgen.Page
	// Pages are the unique pages discovered, in BFS order (the start
	// page first).
	Pages []*webgen.Page
	// ExternalURLs are the off-site links encountered, in discovery
	// order.
	ExternalURLs []string
	// Elapsed is the virtual time the crawl took under the politeness
	// policy, one fetch per page.
	Elapsed time.Duration
}

// Crawl runs a BFS crawl of the web starting at start.
func Crawl(web *webgen.Web, start *webgen.Page, cfg Config) (*Result, error) {
	if start == nil {
		return nil, fmt.Errorf("crawler: nil start page")
	}
	res := &Result{Start: start}
	seen := map[int]bool{start.Index: true} // page indexes: the crawl never leaves start's site
	extSeen := map[string]bool{}
	queue := []*webgen.Page{start}

	for len(queue) > 0 && len(res.Pages) < cfg.MaxPages {
		p := queue[0]
		queue = queue[1:]
		res.Pages = append(res.Pages, p)
		res.Elapsed += politenessGap

		model := p.Build()
		for _, link := range model.Links() {
			norm, ok := urlx.Normalize(link)
			if !ok {
				continue
			}
			target, ok := web.PageByURL(norm)
			if !ok || target.Site != start.Site {
				if !extSeen[norm] {
					extSeen[norm] = true
					res.ExternalURLs = append(res.ExternalURLs, norm)
				}
				continue
			}
			if target.Disallowed() {
				continue
			}
			if !seen[target.Index] {
				seen[target.Index] = true
				queue = append(queue, target)
			}
		}
	}
	return res, nil
}

// InternalPages returns the discovered pages minus the start page.
func (r *Result) InternalPages() []*webgen.Page {
	var out []*webgen.Page
	for _, p := range r.Pages {
		if p != r.Start {
			out = append(out, p)
		}
	}
	return out
}
