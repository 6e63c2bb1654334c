// Package hispar builds and maintains the Hispar top list (§3): a
// two-level "top list" whose entries are URL sets — one per web site,
// containing the landing page plus up to N−1 frequently visited internal
// pages discovered through search-engine "site:" queries.
//
// The builder walks an Alexa-style top list from rank 1, queries the
// search engine for each site, drops sites with too few (English)
// results, and stops when enough sites are collected. It meters the
// search-API cost, supports weekly refreshes, and computes the
// two-level stability metrics the paper reports: top-level site churn
// (inherited from the bootstrap list) and bottom-level internal-URL
// churn.
package hispar

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fanout"
	"repro/internal/search"
	"repro/internal/toplist"
)

// URLSet is one site's entry: the landing page plus internal pages.
type URLSet struct {
	Domain   string
	Rank     int // rank in the bootstrap top list
	Landing  string
	Internal []string
}

// PageCount returns the number of URLs in the set.
func (u *URLSet) PageCount() int { return 1 + len(u.Internal) }

// List is one Hispar snapshot.
type List struct {
	Name string
	Week int
	Sets []URLSet
}

// Pages returns the total number of URLs in the list.
func (l *List) Pages() int {
	n := 0
	for i := range l.Sets {
		n += l.Sets[i].PageCount()
	}
	return n
}

// Top returns a new list containing the k highest-ranked sites (the
// paper's Ht30/Ht100 slices).
func (l *List) Top(k int) *List {
	if k > len(l.Sets) {
		k = len(l.Sets)
	}
	return &List{Name: fmt.Sprintf("%s-top%d", l.Name, k), Week: l.Week, Sets: l.Sets[:k]}
}

// Bottom returns a new list with the k lowest-ranked sites (Hb100).
func (l *List) Bottom(k int) *List {
	if k > len(l.Sets) {
		k = len(l.Sets)
	}
	return &List{Name: fmt.Sprintf("%s-bottom%d", l.Name, k), Week: l.Week, Sets: l.Sets[len(l.Sets)-k:]}
}

// BuildConfig parameterizes one list build.
type BuildConfig struct {
	// Sites is the number of web sites to include (1000 for H1K, 2000
	// for H2K).
	Sites int
	// URLsPerSite is N: the URL-set size including the landing page
	// (20 for H1K, 50 for H2K).
	URLsPerSite int
	// MinResults drops a site when the search yields fewer results
	// (5 for H1K, 10 for H2K, per §3/§3.1); a site with none is always
	// dropped. Sites, URLsPerSite and MinResults have no defaults.
	MinResults int
	// Name labels the list ("H1K", "H2K", ...).
	Name string
	// Week stamps the snapshot week.
	Week int
}

// name is Name, or H<n> (H<n>K from 1000 sites up) for the list size.
func (c BuildConfig) name() string {
	switch {
	case c.Name != "":
		return c.Name
	case c.Sites >= 1000:
		return fmt.Sprintf("H%dK", (c.Sites+500)/1000)
	}
	return fmt.Sprintf("H%d", c.Sites)
}

// BuildStats reports what a build consumed.
type BuildStats struct {
	SitesExamined int
	SitesDropped  int
	Queries       int
	CostUSD       float64
}

// Build assembles a Hispar list: walk the bootstrap top list from the
// most popular site down, fetch each site's URL set from the search
// engine, and stop once cfg.Sites sets are collected.
//
// The sites are queried in parallel, one batch at a time. A batch is the
// next cfg.Sites − len(list.Sets) entries: each adds at most one set, so
// the walk could not have stopped inside it, and the build examines and
// meters exactly the entries a one-by-one walk would. Sets are appended
// in rank order.
func Build(engine *search.Engine, bootstrap []toplist.Entry, cfg BuildConfig) (*List, BuildStats, error) {
	var stats BuildStats
	startQueries := engine.Queries()
	list := &List{Name: cfg.name(), Week: cfg.Week}
	for next := 0; len(list.Sets) < cfg.Sites && next < len(bootstrap); {
		batch := bootstrap[next:min(len(bootstrap), next+cfg.Sites-len(list.Sets))]
		next += len(batch)
		stats.SitesExamined += len(batch)
		sets := fanout.Map(len(batch), func(i int) URLSet { return siteSet(engine, batch[i], cfg) })
		for _, set := range sets {
			if set.Landing == "" {
				stats.SitesDropped++
				continue
			}
			list.Sets = append(list.Sets, set)
		}
	}
	stats.Queries = engine.Queries() - startQueries
	stats.CostUSD = float64(stats.Queries) / 1000 * 5
	if len(list.Sets) < cfg.Sites {
		return list, stats, fmt.Errorf("hispar: bootstrap exhausted with %d/%d sites", len(list.Sets), cfg.Sites)
	}
	return list, stats, nil
}

// siteSet queries the search engine for entry's URL set. A site dropped
// for too few results gets the zero URLSet, whose Landing is empty.
func siteSet(engine *search.Engine, entry toplist.Entry, cfg BuildConfig) URLSet {
	results, err := engine.Site(entry.Domain, cfg.URLsPerSite)
	if err != nil || len(results) == 0 || len(results) < cfg.MinResults {
		return URLSet{}
	}
	set := URLSet{Domain: entry.Domain, Rank: entry.Rank, Landing: results[0].URL}
	for _, r := range results[1:] {
		set.Internal = append(set.Internal, r.URL)
	}
	return set
}

// SiteChurn returns the top-level weekly churn: the fraction of sites in
// prev absent from next (inherited from the bootstrap list, §3).
func SiteChurn(prev, next *List) float64 {
	if len(prev.Sets) == 0 {
		return 0
	}
	in := make(map[string]bool, len(next.Sets))
	for _, s := range next.Sets {
		in[s.Domain] = true
	}
	gone := 0
	for _, s := range prev.Sets {
		if !in[s.Domain] {
			gone++
		}
	}
	return float64(gone) / float64(len(prev.Sets))
}

// InternalChurn returns the bottom-level weekly churn: over sites present
// in both snapshots, the fraction of internal URLs on week i that are
// absent on week i+1. No ordering among a set's URLs is assumed (§3).
func InternalChurn(prev, next *List) float64 {
	nextSets := make(map[string]map[string]bool, len(next.Sets))
	for _, s := range next.Sets {
		urls := make(map[string]bool, len(s.Internal))
		for _, u := range s.Internal {
			urls[normKey(u)] = true
		}
		nextSets[s.Domain] = urls
	}
	total, gone := 0, 0
	for _, s := range prev.Sets {
		urls, ok := nextSets[s.Domain]
		if !ok {
			continue // site churned out at the top level
		}
		for _, u := range s.Internal {
			total++
			if !urls[normKey(u)] {
				gone++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gone) / float64(total)
}

// normKey strips the scheme so that an http→https migration does not
// count as churn.
func normKey(u string) string {
	if i := strings.Index(u, "://"); i >= 0 {
		return u[i+3:]
	}
	return u
}

// WriteCSV serializes the list in the public Hispar release format:
// rank,domain,url with one row per URL (the landing page first).
func (l *List) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s week=%d sites=%d pages=%d\n", l.Name, l.Week, len(l.Sets), l.Pages())
	for _, s := range l.Sets {
		if _, err := fmt.Fprintf(bw, "%d,%s,%s\n", s.Rank, s.Domain, s.Landing); err != nil {
			return err
		}
		for _, u := range s.Internal {
			if _, err := fmt.Fprintf(bw, "%d,%s,%s\n", s.Rank, s.Domain, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a list written by WriteCSV.
func ReadCSV(r io.Reader) (*List, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	list := &List{Name: "unnamed"}
	byDomain := make(map[string]int)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var week, sites, pages int
			var name string
			if n, _ := fmt.Sscanf(line, "# %s week=%d sites=%d pages=%d", &name, &week, &sites, &pages); n >= 2 {
				list.Name, list.Week = name, week
			}
			continue
		}
		parts := strings.SplitN(line, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("hispar: malformed row %q", line)
		}
		var rank int
		if _, err := fmt.Sscanf(parts[0], "%d", &rank); err != nil {
			return nil, fmt.Errorf("hispar: bad rank in %q: %w", line, err)
		}
		domain, u := parts[1], parts[2]
		idx, ok := byDomain[domain]
		if !ok {
			byDomain[domain] = len(list.Sets)
			list.Sets = append(list.Sets, URLSet{Domain: domain, Rank: rank, Landing: u})
			continue
		}
		list.Sets[idx].Internal = append(list.Sets[idx].Internal, u)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(list.Sets, func(i, j int) bool { return list.Sets[i].Rank < list.Sets[j].Rank })
	return list, nil
}
