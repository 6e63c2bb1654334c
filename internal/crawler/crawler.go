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

// Config parameterizes a crawl.
type Config struct {
	// MaxPages stops the crawl after this many unique pages
	// (default 5000).
	MaxPages int
	// PolitenessGap is the virtual-time spacing between fetches
	// (default 5s).
	PolitenessGap time.Duration
	// SameSiteOnly restricts the frontier to the start page's site
	// (default true behaviour; external links are recorded but not
	// followed).
	FollowExternal bool
	// IgnoreRobots crawls pages excluded by robots.txt too; by default
	// the crawler is polite and skips them (§3 ethics).
	IgnoreRobots bool
}

func (c Config) withDefaults() Config {
	if c.MaxPages <= 0 {
		c.MaxPages = 5000
	}
	if c.PolitenessGap <= 0 {
		c.PolitenessGap = 5 * time.Second
	}
	return c
}

// Result is the outcome of a crawl.
type Result struct {
	Start *webgen.Page
	// Pages are the unique pages discovered, in BFS order (the start
	// page first).
	Pages []*webgen.Page
	// ExternalURLs are off-site links encountered (not followed unless
	// FollowExternal).
	ExternalURLs []string
	// Fetches is the number of page fetches performed.
	Fetches int
	// Elapsed is the virtual time the crawl took under the politeness
	// policy.
	Elapsed time.Duration
}

// Crawl runs a BFS crawl of the web starting at start.
func Crawl(web *webgen.Web, start *webgen.Page, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if start == nil {
		return nil, fmt.Errorf("crawler: nil start page")
	}
	res := &Result{Start: start}
	seen := map[string]bool{}
	extSeen := map[string]bool{}
	queue := []*webgen.Page{start}
	seen[pageKey(start)] = true

	for len(queue) > 0 && len(res.Pages) < cfg.MaxPages {
		p := queue[0]
		queue = queue[1:]
		res.Pages = append(res.Pages, p)
		res.Fetches++
		res.Elapsed += cfg.PolitenessGap

		model := p.Build()
		for _, link := range model.Links() {
			norm, ok := urlx.Normalize(link)
			if !ok {
				continue
			}
			target, ok := web.PageByURL(norm)
			if !ok {
				if !extSeen[norm] {
					extSeen[norm] = true
					res.ExternalURLs = append(res.ExternalURLs, norm)
				}
				continue
			}
			sameSite := target.Site == start.Site
			if !sameSite && !cfg.FollowExternal {
				if !extSeen[norm] {
					extSeen[norm] = true
					res.ExternalURLs = append(res.ExternalURLs, norm)
				}
				continue
			}
			if !cfg.IgnoreRobots && target.Disallowed() {
				continue
			}
			k := pageKey(target)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, target)
			}
		}
	}
	return res, nil
}

func pageKey(p *webgen.Page) string {
	return p.Site.Domain + "|" + p.Path()
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
