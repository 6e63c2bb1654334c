// Package webgen generates a deterministic synthetic web: ranked sites
// with one landing page and a pool of internal pages, each page a full
// object tree (sizes, MIME mixes, dependency depths, third parties,
// trackers, resource hints, cacheability, CDN placement, security
// posture).
//
// The generator substitutes for the live web the paper measured. Site
// *structure* is sampled from per-site profiles calibrated to the paper's
// site-level statistics (see profile.go for every knob and its source
// figure); page *performance* is never sampled — it emerges downstream
// from the simulated network, DNS, and CDN mechanics when the page-load
// engine fetches these pages.
package webgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/dnssim"
	"repro/internal/fanout"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// SiteSeed names one site to generate.
type SiteSeed struct {
	Domain string
	// Rank is the site's Alexa-style rank; 0 means unranked (treated as
	// very unpopular).
	Rank int
	// PoolSize overrides the number of internal pages the site has at
	// week 0 (0 = category default). The exhaustive-crawl experiment
	// (§4, Fig 3b/3c) needs sites with thousands of pages.
	PoolSize int
	// Category forces the site's category ("" = drawn from rank).
	Category Category
}

// Config parameterizes web generation.
type Config struct {
	Seed int64
	// Week is the snapshot week; page pools grow and visit weights drift
	// week over week, which drives Hispar's bottom-level churn (§3).
	Week int
	// Sites to generate. Typically the top of a toplist.Universe snapshot.
	Sites []SiteSeed
}

// defaultPoolSize is the median week-0 internal page pool of a site
// whose SiteSeed sets no PoolSize.
const defaultPoolSize = 120

// trackerDomains and benignDomains size the global third-party
// directory. Site rosters index the benign domains as uint16.
const trackerDomains, benignDomains = 80, 320

// Web is one weekly snapshot of the synthetic web.
type Web struct {
	Seed  int64
	Week  int
	Sites []*Site

	siteByDomain map[string]*Site
	thirdParties []ThirdParty
	trackers     []string         // tracker domains, in directory order
	benign       []string         // benign domains, in directory order
	tpByKind     map[string][]int // indexes into thirdParties
	tpIndex      map[string]int   // domain -> directory position (popularity order)
}

// Generate builds the web snapshot for cfg.
func Generate(cfg Config) *Web {
	w := &Web{
		Seed:         cfg.Seed,
		Week:         cfg.Week,
		siteByDomain: make(map[string]*Site, len(cfg.Sites)),
		thirdParties: ThirdPartyDirectory(cfg.Seed, trackerDomains, benignDomains),
		tpByKind:     make(map[string][]int),
	}
	w.tpIndex = make(map[string]int, len(w.thirdParties))
	for i, tp := range w.thirdParties {
		w.tpByKind[tp.Kind] = append(w.tpByKind[tp.Kind], i)
		w.tpIndex[tp.Domain] = i
		if tp.Tracker {
			w.trackers = append(w.trackers, tp.Domain)
		} else {
			w.benign = append(w.benign, tp.Domain)
		}
	}
	// Sites are drawn from their own seeds, so they build in parallel;
	// a domain listed twice resolves to its last site, as in input order.
	w.Sites = fanout.Map(len(cfg.Sites), func(i int) *Site { return newSite(w, cfg.Sites[i]) })
	for _, s := range w.Sites {
		w.siteByDomain[s.Domain] = s
	}
	return w
}

// ThirdParties returns the global third-party directory.
func (w *Web) ThirdParties() []ThirdParty { return w.thirdParties }

// SiteByDomain returns the site registered for domain.
func (w *Web) SiteByDomain(domain string) (*Site, bool) {
	s, ok := w.siteByDomain[domain]
	return s, ok
}

// PageByURL maps a normalized page URL back to its Page. Scheme
// differences are ignored: the page identity is host+path. Internal
// paths are inverted, not looked up: the index a path embeds is accepted
// only when that page of the current pool has exactly this path, so the
// lookup keeps no per-site state and is safe for concurrent use.
func (w *Web) PageByURL(raw string) (*Page, bool) {
	host, path := splitURL(raw)
	www := strings.TrimPrefix(host, "www.")
	s, ok := w.siteByDomain[www]
	if !ok {
		return nil, false
	}
	if path == "/" || path == "" {
		return s.landing, true
	}
	idx, ok := pageIndexOf(s.Category, path)
	if !ok || idx < 1 || idx > s.PoolSize() {
		return nil, false
	}
	p := s.PageAt(idx)
	if p.Path() != path {
		return nil, false
	}
	return p, true
}

func splitURL(raw string) (host, path string) {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		host, path = s[:i], s[i:]
	} else {
		host, path = s, "/"
	}
	if i := strings.IndexByte(path, '#'); i >= 0 {
		path = path[:i]
	}
	return strings.ToLower(host), path
}

// Site is one web site: a domain, its rank and category, a calibrated
// profile, a landing page, and a pool of internal pages.
type Site struct {
	Domain   string
	Rank     int
	Category Category
	Origin   simnet.Loc
	Profile  Profile

	web      *Web
	seed     int64
	landing  *Page // built with the site: readers share it unlocked
	poolSize int

	rosterOnce sync.Once
	roster     []uint16 // benign third parties, as indexes into web.benign
}

func newSite(w *Web, seed SiteSeed) *Site {
	s := &Site{
		Domain: strings.ToLower(seed.Domain),
		Rank:   seed.Rank,
		web:    w,
		seed:   subSeed(w.Seed, "site", strings.ToLower(seed.Domain)),
	}
	s.landing = &Page{Site: s, Index: 0}
	rng := detrand.New(s.seed)
	rank := seed.Rank
	if rank <= 0 {
		rank = 100000
	}
	s.Category = seed.Category
	if s.Category == "" {
		s.Category = categoryFor(rng, rank)
	}
	s.Origin = originLoc(rng, s.Category)
	s.Profile = sampleProfile(rng, rank, s.Category)
	s.poolSize = seed.PoolSize
	if s.poolSize <= 0 {
		// Site sizes are heavy-tailed: some sites have only a couple of
		// dozen pages (their site: queries return fewer than N URLs and
		// cost extra per URL — the §7 cost overhead), others thousands.
		s.poolSize = int(logNormal(rng, defaultPoolSize, 0.8))
		if s.poolSize < 12 {
			s.poolSize = 12
		}
	}
	return s
}

// Popularity returns the site's global request popularity in (0,1],
// Zipf-like in rank.
func (s *Site) Popularity() float64 {
	rank := s.Rank
	if rank <= 0 {
		rank = 100000
	}
	return math.Pow(float64(rank), -0.85)
}

// Host returns the site's canonical web host (www.<domain>).
func (s *Site) Host() string { return "www." + s.Domain }

// freshPerWeek is how many new internal pages the site publishes weekly.
func (s *Site) freshPerWeek() int {
	switch s.Category {
	case CatNews, CatSports:
		return 12
	case CatSocial:
		return 8
	case CatEntertainment:
		return 4
	default:
		return 1
	}
}

// PoolSize returns the number of internal pages existing at the web's
// snapshot week.
func (s *Site) PoolSize() int {
	return s.poolSize + s.freshPerWeek()*s.web.Week
}

// Landing returns the site's landing page.
func (s *Site) Landing() *Page { return s.landing }

// PageAt returns the internal page with 1-based index idx (idx 0 is the
// landing page). Pages are cheap value-ish objects created on demand.
func (s *Site) PageAt(idx int) *Page {
	if idx == 0 {
		return s.landing
	}
	return &Page{Site: s, Index: idx}
}

// InternalPages returns the site's full internal page pool at the
// snapshot week.
func (s *Site) InternalPages() []*Page {
	n := s.PoolSize()
	out := make([]*Page, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, s.PageAt(i))
	}
	return out
}

// TopInternal returns the site's n most-visited internal pages at the
// snapshot week, most popular first — what a search engine surfaces for
// a "site:" query.
func (s *Site) TopInternal(n int) []*Page {
	top := s.topByVisitWeight(n)
	pages := make([]Page, len(top))
	out := make([]*Page, len(top))
	for i, r := range top {
		pages[i] = Page{Site: s, Index: r.idx}
		out[i] = &pages[i]
	}
	return out
}

// rankedPage is an internal page's ranking key: its visit weight and
// its index.
type rankedPage struct {
	w   float64
	idx int
}

// byVisitWeight orders pages most visited first: by descending weight,
// ties by ascending index. That order is total, so a ranking is unique.
func byVisitWeight(a, b rankedPage) int {
	if a.w != b.w {
		if a.w > b.w {
			return -1
		}
		return 1
	}
	return a.idx - b.idx
}

// topByVisitWeight returns the keys of the site's k most visited
// internal pages in byVisitWeight order. Each page's weight is computed
// once, and only the k best keys are sorted.
func (s *Site) topByVisitWeight(k int) []rankedPage {
	w := s.visitWeigher()
	keys := make([]rankedPage, s.PoolSize())
	for i := range keys {
		keys[i] = rankedPage{w.weight(i + 1), i + 1}
	}
	return stats.TopK(keys, k, byVisitWeight)
}

// TopIndexable returns the site's n most-visited internal pages that a
// search engine may index (robots.txt exclusions removed).
func (s *Site) TopIndexable(n int) []*Page {
	// Over-fetch, then filter: disallowed pages are a small fraction.
	candidates := s.TopInternal(n + n/2 + 8)
	out := candidates[:0]
	for _, p := range candidates {
		if len(out) >= n {
			break
		}
		if !p.Disallowed() {
			out = append(out, p)
		}
	}
	return out
}

// Page is one web page of a site. Index 0 is the landing page.
type Page struct {
	Site  *Site
	Index int
}

// IsLanding reports whether p is the site's landing page.
func (p *Page) IsLanding() bool { return p.Index == 0 }

// bornWeek returns the week internal page idx was published (0 for the
// base pool).
func (s *Site) bornWeek(idx int) int {
	if idx <= s.poolSize {
		return 0
	}
	return 1 + (idx-s.poolSize-1)/maxInt(1, s.freshPerWeek())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Path returns the page's URL path, stable across weeks.
func (p *Page) Path() string {
	if p.IsLanding() {
		return "/"
	}
	rng := rngForKeyIdx(p.Site.seed, "path", p.Index)
	return pathFor(rng, p.Site.Category, p.Index)
}

// baseScheme is the scheme the URL itself is served under, before any
// redirect is considered.
func (p *Page) baseScheme() string {
	prof := &p.Site.Profile
	if p.IsLanding() {
		if prof.HTTPLanding {
			return "http"
		}
		return "https"
	}
	if prof.HTTPLanding {
		// Sites that have not migrated the landing page serve everything
		// over HTTP.
		return "http"
	}
	if prof.HTTPInternalProb > 0 &&
		noise01KeyIdx(p.Site.seed, "scheme", p.Index) < prof.HTTPInternalProb {
		return "http"
	}
	return "https"
}

// Scheme returns the scheme of the page a user finally lands on: "http"
// for plain-HTTP URLs and for HTTPS URLs that redirect to plain-HTTP
// content elsewhere (§6.1 security posture).
func (p *Page) Scheme() string {
	if _, ok := p.RedirectsToInsecure(); ok {
		return "http"
	}
	return p.baseScheme()
}

// URL returns the page's full normalized URL — the address a search
// engine or list carries, i.e. before any redirect is followed.
func (p *Page) URL() string {
	var buf [160]byte
	var g *rand.Rand
	return string(p.appendURL(buf[:0], &g))
}

// URLs returns the URL of each page, drawing every internal page's path
// from one re-seeded generator rather than a new one per page.
func URLs(pages []*Page) []string {
	var buf [160]byte
	var g *rand.Rand
	out := make([]string, len(pages))
	for i, p := range pages {
		out[i] = string(p.appendURL(buf[:0], &g))
	}
	return out
}

// appendURL appends URL() to dst, drawing an internal page's path from
// *g re-seeded with the page's "path" stream.
func (p *Page) appendURL(dst []byte, g **rand.Rand) []byte {
	s := p.Site
	dst = append(append(append(dst, p.baseScheme()...), "://www."...), s.Domain...)
	if p.IsLanding() {
		return append(dst, '/')
	}
	return appendPath(dst, reseed(g, subSeedKeyIdx(s.seed, "path", p.Index)), s.Category, p.Index)
}

// Title returns a short page title, rendered into the page's HTML.
func (p *Page) Title() string {
	if p.IsLanding() {
		return p.Site.Domain + " — home"
	}
	rng := rngForKeyIdx(p.Site.seed, "title", p.Index)
	w := slugWords[rng.Intn(len(slugWords))]
	return fmt.Sprintf("%s %s — %s",
		strings.ToUpper(w[:1])+w[1:],
		slugWords[rng.Intn(len(slugWords))],
		p.Site.Domain)
}

// VisitWeight returns the page's user-visit popularity at the web's
// snapshot week. Weights drift weekly (more for fresh-content
// categories), and recent pages on news-like sites get a recency boost —
// together these produce Hispar's ~30% weekly internal-URL churn (§3).
func (p *Page) VisitWeight() float64 {
	if p.IsLanding() {
		return 1e9 // the landing page is always the most visited
	}
	w := p.Site.visitWeigher()
	return w.weight(p.Index)
}

// visitWeigher computes the visit weights of one site's internal pages
// with the per-site work done once: the FNV prefixes of the "basepop"
// and "drift" draws, the pool size and the category's drift spread. It
// also keeps the recency boost of the last page age it computed: pages
// are weighed in index order, and the age only changes from one week's
// fresh pages to the next.
type visitWeigher struct {
	site    *Site
	week    int
	pool    float64
	sigma   float64
	basepop uint64
	drift   normPrefixes
	fresh   bool // news-like: recent pages get a recency boost
	recAge  int  // the age rec belongs to; -1 before the first
	rec     float64
}

func (s *Site) visitWeigher() visitWeigher {
	sigma := 0.5
	switch s.Category {
	case CatNews, CatSports:
		sigma = 1.3
	case CatSocial:
		sigma = 1.1
	case CatEntertainment:
		sigma = 0.8
	}
	return visitWeigher{
		site:    s,
		week:    s.web.Week,
		pool:    float64(s.PoolSize()),
		sigma:   sigma,
		basepop: keyPrefix(s.seed, "basepop"),
		drift:   newNormPrefixes(s.seed, "drift"),
		fresh:   s.freshPerWeek() > 3,
		recAge:  -1,
	}
}

// weight returns the visit weight of internal page idx.
func (w *visitWeigher) weight(idx int) float64 {
	// Base Zipf over the page pool, keyed to a stable per-page draw so
	// the "intrinsically popular" pages persist.
	base := math.Pow(1+finalize01(fnv64aU64(w.basepop, uint64(idx)))*w.pool, -0.9)
	drift := math.Exp(w.drift.at(idx, w.week) * w.sigma)
	recency := 1.0
	if w.fresh {
		age := max(0, w.week-w.site.bornWeek(idx))
		if age != w.recAge {
			w.recAge, w.rec = age, math.Exp(-0.5*float64(age))+0.05
		}
		recency = w.rec
	}
	return base * drift * recency
}

// Popularity returns the page's global request popularity used for cache
// warmth: site popularity shaped by within-site visit share, boosted for
// the landing page (landing pages are requested far more often — the
// root of the paper's CDN-hit asymmetry, §5.1).
func (p *Page) Popularity() float64 {
	s := p.Site
	pop := math.Pow(s.Popularity(), 0.3)
	if p.IsLanding() {
		return pop * s.Profile.LandingPopBoost
	}
	// Within-site share, compressed: internal pages vary less in global
	// popularity than raw visit weights suggest.
	w := p.VisitWeight()
	share := math.Pow(clamp01(w), 0.25)
	if share < 0.68 {
		share = 0.68
	}
	return pop * share
}

// Authority returns a DNS authority over the synthetic web: site hosts
// (with CNAME chains to CDN edges for CDN-fronted subdomains),
// third-party hosts, and raw CDN hosts. TTLs are short for
// request-routed (CDN) names and long otherwise, which drives the low
// resolver hit rates of §5.3.
func (w *Web) Authority() dnssim.Authority {
	return dnssim.AuthorityFunc(func(host string) (dnssim.Record, bool) {
		host = strings.ToLower(host)
		ttl := time.Hour
		chain := w.CNAMEChain(host)
		switch {
		case strings.Contains(host, "-edge.net"), isCDNHost(host):
			ttl = 30 * time.Second
		case chain != nil:
			ttl = 60 * time.Second
		}
		return dnssim.Record{
			Host:  host,
			Chain: chain,
			Addr:  dnssim.SyntheticAddr(host),
			TTL:   ttl,
		}, true
	})
}

// CNAMEChain returns the CNAME chain of a lowercase host. A site's
// static.<domain> subdomain is CNAMEd to its CDN's edge when the site has
// a CDN contract, so everything served from it rides the CDN
// (host-consistent delivery); no other name has a chain. Authority and
// the study's CDN attribution both read chains from here.
func (w *Web) CNAMEChain(host string) []string {
	domain, ok := strings.CutPrefix(host, "static.")
	if !ok {
		return nil
	}
	s, ok := w.siteByDomain[domain]
	if !ok || s.Profile.CDNProvider == "" {
		return nil
	}
	return []string{host + "." + s.Profile.CDNProvider + "-edge.net"}
}

// cdnHostSuffixes holds ".<provider>.net" for every CDN provider.
var cdnHostSuffixes = func() []string {
	out := make([]string, len(cdnProviderNames))
	for i, p := range cdnProviderNames {
		out[i] = "." + p + ".net"
	}
	return out
}()

func isCDNHost(host string) bool {
	for _, suffix := range cdnHostSuffixes {
		if strings.HasSuffix(host, suffix) {
			return true
		}
	}
	return false
}
