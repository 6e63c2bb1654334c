package webgen

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/htmlx"
	"repro/internal/urlx"
)

// Role is an object's function on the page; it determines MIME type,
// typical size, dependency behaviour, and cacheability defaults.
type Role int

// Object roles.
const (
	RoleDoc Role = iota
	RoleCSS
	RoleJS
	RoleImage
	RoleFont
	RoleJSON
	RoleMedia
	RoleData
	RoleIframe
	RoleBeacon   // tiny pixel/telemetry request
	RoleAdJS     // ad/tracking script
	RoleAdImage  // ad creative
	RoleBid      // header-bidding auction request
	RoleRedirect // 3xx answer forwarding to another URL
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleDoc:
		return "doc"
	case RoleCSS:
		return "css"
	case RoleJS:
		return "js"
	case RoleImage:
		return "image"
	case RoleFont:
		return "font"
	case RoleJSON:
		return "json"
	case RoleMedia:
		return "media"
	case RoleData:
		return "data"
	case RoleIframe:
		return "iframe"
	case RoleBeacon:
		return "beacon"
	case RoleAdJS:
		return "adjs"
	case RoleAdImage:
		return "adimage"
	case RoleBid:
		return "bid"
	case RoleRedirect:
		return "redirect"
	default:
		return "unknown"
	}
}

// MIME returns the MIME type emitted for the role (mediaAudio selects
// audio/mpeg for media objects).
func (r Role) MIME(variant int) string {
	switch r {
	case RoleDoc, RoleIframe, RoleRedirect:
		return "text/html"
	case RoleCSS:
		return "text/css"
	case RoleJS, RoleAdJS:
		return "application/javascript"
	case RoleImage, RoleAdImage:
		return [...]string{"image/jpeg", "image/png", "image/webp", "image/gif"}[variant%4]
	case RoleFont:
		return "font/woff2"
	case RoleJSON, RoleBid:
		return "application/json"
	case RoleMedia:
		if variant%3 == 0 {
			return "audio/mpeg"
		}
		return "video/mp4"
	case RoleData:
		return "text/plain"
	case RoleBeacon:
		return "image/gif"
	default:
		return "application/octet-stream"
	}
}

// Object is one fetchable resource of a page.
type Object struct {
	URL            string
	Host           string
	Scheme         string
	Role           Role
	MIME           string
	Size           int64
	Depth          int // 0 = root document
	Parent         int // index of the initiator object (-1 for the root)
	Cacheable      bool
	RenderBlocking bool
	Async          bool
	Preloaded      bool   // referenced by a preload/prefetch hint
	ViaCDN         string // CDN provider name, "" = origin-served
	Tracker        bool   // ad/tracking request (ground truth)
	ThirdParty     bool
	Popularity     float64 // global request popularity, drives CDN/DNS warmth
	VisualWeight   float64 // contribution to visual completeness (Speed Index)

	// Cache validators and freshness, set for cacheable objects only
	// (dynamic responses never validate). Hash-derived from the final
	// URL — no RNG — so the generator's draw sequence is identical to
	// the cold-only engine's. MaxAgeSecs 0 on a cacheable object means
	// "validators but no explicit freshness": the heuristic-freshness
	// population of RFC 7234 §4.2.2.
	ETag         string
	LastModified string // pre-formatted HTTP date
	MaxAgeSecs   int
	// EdgeAgeSecs is the Age header a CDN edge hit reports (time the
	// copy already spent at the edge); 0 for origin-served objects.
	EdgeAgeSecs int
}

// Hint is one resource hint emitted in the page head.
type Hint struct {
	Type htmlx.HintType
	// Target is a URL for preload/prefetch/prerender or an origin
	// ("https://host") for dns-prefetch/preconnect.
	Target string
	// ObjectIndex is the index of the hinted object for preload/prefetch
	// (-1 otherwise).
	ObjectIndex int
}

// PageModel is the fully generated page: the object tree plus the page
// markup metadata needed by crawler, browser, and analyses.
type PageModel struct {
	Page    *Page
	URL     string
	Objects []*Object // Objects[0] is the root (a redirect on §6.1 pages)
	Hints   []Hint
	AdSlots int
	HasHB   bool // header-bidding active on this page
	// RedirectedFrom is the original HTTPS URL when the page's address
	// 301s to plain-HTTP content on another domain (§6.1); "" otherwise.
	RedirectedFrom string

	links []int // outgoing same-site links as page indices (0 = landing)
}

// Links returns the URLs of the page's outgoing same-site links, in
// markup order. They are formatted on each call: the page load never
// reads them, only the markup and the crawlers that follow them.
func (m *PageModel) Links() []string {
	s := m.Page.Site
	out := make([]string, len(m.links))
	for i, idx := range m.links {
		out[i] = s.PageAt(idx).URL()
	}
	return out
}

// DocIndex returns the index of the page's root document (after any
// leading redirect).
func (m *PageModel) DocIndex() int {
	for i, o := range m.Objects {
		if o.Role == RoleDoc {
			return i
		}
	}
	return 0
}

// Role mixes: fraction of non-tracker, non-root objects per role.
// Landing pages are gallery-like (many images); internal pages are
// application-like (more API/JSON and telemetry fetches) — the count
// analogue of the Fig 4c byte mix, and the breadth behind the Fig 7
// wait-time asymmetry (dynamic responses wait on origin work).
type roleFrac struct {
	role Role
	frac float64
}

var roleMixLanding = []roleFrac{
	{RoleImage, 0.465},
	{RoleJS, 0.25},
	{RoleCSS, 0.055},
	{RoleFont, 0.04},
	{RoleJSON, 0.05},
	{RoleData, 0.04},
	{RoleMedia, 0.02},
	{RoleIframe, 0.03},
	{RoleBeacon, 0.05},
}

var roleMixInternal = []roleFrac{
	{RoleImage, 0.285},
	{RoleJS, 0.25},
	{RoleCSS, 0.055},
	{RoleFont, 0.04},
	{RoleJSON, 0.135},
	{RoleData, 0.065},
	{RoleMedia, 0.02},
	{RoleIframe, 0.02},
	{RoleBeacon, 0.13},
}

// Build generates the page's object tree. Deterministic per page: the
// same page always yields the same model, regardless of snapshot week.
func (p *Page) Build() *PageModel {
	s := p.Site
	prof := &s.Profile
	rng := rngForKeyIdx(s.seed, "page-model", p.Index)
	m := &PageModel{Page: p, URL: p.URL()}

	landing := p.IsLanding()

	// --- Page-level targets ---
	objMedian := prof.ObjInternal
	bytesMedian := prof.BytesInternal
	mix := prof.MixInternal
	depths := prof.DepthInternal
	trackerMean := prof.TrackersInternal
	domTarget := prof.DomainsInternal
	cdnFrac := prof.CDNFracInternal
	if landing {
		objMedian *= prof.ObjRatio
		bytesMedian *= prof.SizeRatio
		mix = prof.MixLanding
		depths = prof.DepthLanding
		trackerMean = prof.TrackersLanding
		domTarget = prof.DomainsInternal * prof.DomainsRatio
		cdnFrac = clamp01(prof.CDNFracInternal * prof.CDNFracRatio)
	}
	n := int(logNormal(rng, objMedian, 0.32))
	if n < 8 {
		n = 8
	}
	total := logNormal(rng, bytesMedian, 0.38)
	if total < 6e4 {
		total = 6e4
	}
	trackerCount := poisson(rng, trackerMean)
	if trackerCount > n/2 {
		trackerCount = n / 2
	}

	pageScheme := p.Scheme()
	host := s.Host()

	// Size the object slice up front: root + regular + ad-tech roughly
	// tracks n, and the paper-scale pages make append regrowth visible
	// in the study benchmarks.
	m.Objects = make([]*Object, 0, n+16)

	// --- Root document ---
	root := &Object{
		URL:          pageScheme + "://" + host + p.Path(),
		Host:         host,
		Scheme:       pageScheme,
		Role:         RoleDoc,
		MIME:         "text/html",
		Depth:        0,
		Parent:       -1,
		Cacheable:    false, // dynamic HTML (CDNs may still micro-cache it)
		VisualWeight: 15,
	}
	if prof.CDNProvider != "" && prof.DocViaCDN {
		root.ViaCDN = prof.CDNProvider
	}
	m.Objects = append(m.Objects, root)

	// --- Regular objects ---
	regular := n - 1 - trackerCount
	if regular < 5 {
		regular = 5
	}
	for i := 0; i < regular; i++ {
		role := drawRole(rng, landing)
		m.Objects = append(m.Objects, &Object{Role: role, Scheme: pageScheme})
	}

	// --- Header bidding & ad slots (§6.3) ---
	hb := (landing && prof.HBLanding) || (!landing && (prof.HBLanding || prof.HBInternalOnly))
	if hb {
		m.HasHB = true
		if landing {
			m.AdSlots = prof.AdSlotsLanding
		} else {
			m.AdSlots = maxInt(1, prof.AdSlotsIntern+rng.Intn(3)-1)
		}
		// One prebid-style wrapper script plus ~2 bid requests per slot.
		m.Objects = append(m.Objects, &Object{Role: RoleAdJS, Scheme: pageScheme, Tracker: true})
		for i := 0; i < m.AdSlots*2; i++ {
			m.Objects = append(m.Objects, &Object{Role: RoleBid, Scheme: pageScheme, Tracker: true})
		}
	}

	// --- Tracking requests (§6.3) ---
	for i := 0; i < trackerCount; i++ {
		role := RoleBeacon
		switch rng.Intn(3) {
		case 1:
			role = RoleAdJS
		case 2:
			role = RoleAdImage
		}
		m.Objects = append(m.Objects, &Object{Role: role, Scheme: pageScheme, Tracker: true})
	}

	p.assignHosts(rng, m, domTarget, cdnFrac, landing)
	p.assignDepths(rng, m, depths)
	p.assignSizes(rng, m, total, mix)
	p.assignCacheability(rng, m, landing)
	p.assignMixedContent(rng, m, landing)
	p.assignURLs(rng, m) // schemes and hosts are final here
	p.assignHints(rng, m, landing)
	p.assignPopularity(rng, m)
	p.buildLinks(rng, m, landing)
	p.wrapInsecureRedirect(m)
	assignValidators(m) // after wrapInsecureRedirect: URLs are final here
	return m
}

// wrapInsecureRedirect prepends the §6.1 redirect hop for HTTPS URLs
// that forward to plain-HTTP content on a foreign domain: the original
// URL answers 301 and the whole document tree shifts one dependency
// level deeper, now served over HTTP from the target host.
func (p *Page) wrapInsecureRedirect(m *PageModel) {
	target, ok := p.RedirectsToInsecure()
	if !ok {
		return
	}
	m.RedirectedFrom = m.URL
	doc := m.Objects[0]
	doc.URL = target
	doc.Host = urlx.Host(target)
	doc.Scheme = "http"
	for _, o := range m.Objects {
		o.Depth++
		o.Parent++
	}
	doc.Parent = 0
	redirect := &Object{
		URL:        m.RedirectedFrom,
		Host:       p.Site.Host(),
		Scheme:     "https",
		Role:       RoleRedirect,
		MIME:       "text/html",
		Size:       320,
		Depth:      0,
		Parent:     -1,
		Cacheable:  false,
		Popularity: doc.Popularity,
	}
	m.Objects = append([]*Object{redirect}, m.Objects...)
	for i := range m.Hints {
		if m.Hints[i].ObjectIndex >= 0 {
			m.Hints[i].ObjectIndex++
		}
	}
}

// assignURLs renders the final URL of every non-root object.
func (p *Page) assignURLs(rng *rand.Rand, m *PageModel) {
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		o.URL = o.Scheme + "://" + o.Host + objectPath(rng, o, p.Index, i)
	}
}

func drawRole(rng *rand.Rand, landing bool) Role {
	mix := roleMixInternal
	if landing {
		mix = roleMixLanding
	}
	x := rng.Float64()
	acc := 0.0
	for _, rm := range mix {
		acc += rm.frac
		if x < acc {
			return rm.role
		}
	}
	return RoleImage
}

// assignHosts distributes objects over first-party hosts, CDN hosts,
// third-party domains (drawn from the site's roster), and tracker
// domains, aiming for the page's unique-origin target (Fig 5).
func (p *Page) assignHosts(rng *rand.Rand, m *PageModel, domTarget, cdnFrac float64, landing bool) {
	s := p.Site
	prof := &s.Profile
	staticHost := "static." + s.Domain
	imgHost := "img." + s.Domain

	// Tracker hosts first: the site embeds a handful of ad/analytics
	// vendors; every tracking request goes to one of them.
	trackerPool := s.trackerPool()
	trackerDomains := make(map[string]bool)
	for _, o := range m.Objects {
		if o.Tracker {
			d := trackerPool[rng.Intn(len(trackerPool))]
			o.Host = d
			o.ThirdParty = true
			trackerDomains[d] = true
		}
	}

	// Benign third parties: enough distinct domains to reach the origin
	// target after the first-party hosts (www/assets/img/static/CDN) and
	// trackers are counted.
	tpBudget := int(domTarget*math.Exp(rng.NormFloat64()*0.12)) - 6 - len(trackerDomains)
	if tpBudget < 0 {
		tpBudget = 0
	}
	roster, benign := s.tpRoster(), s.web.benign
	var tpDomains []string
	if landing {
		// Landing pages use the head of the roster: the site's core,
		// ubiquitous third parties.
		for i := 0; i < tpBudget && i < len(roster); i++ {
			tpDomains = append(tpDomains, benign[roster[i]])
		}
	} else {
		// Internal pages mix core and long-tail roster entries; the tail
		// accumulates into "third parties never seen on the landing
		// page" (Fig 8b).
		for _, idx := range sampleDistinct(rng, len(roster), tpBudget, 0.55) {
			tpDomains = append(tpDomains, benign[roster[idx]])
		}
	}

	// Candidate objects for third-party hosting. Third parties may absorb
	// at most ~60% of the eligible objects so that small pages retain
	// their first-party (and CDN-served) assets.
	var tpEligible []*Object
	for _, o := range m.Objects[1:] {
		if o.Tracker {
			continue
		}
		switch o.Role {
		case RoleJS, RoleImage, RoleFont, RoleJSON, RoleIframe, RoleMedia, RoleBeacon:
			tpEligible = append(tpEligible, o)
		}
	}
	rng.Shuffle(len(tpEligible), func(i, j int) { tpEligible[i], tpEligible[j] = tpEligible[j], tpEligible[i] })
	tpCap := len(tpEligible) * 7 / 10
	if len(tpDomains) > tpCap {
		tpDomains = tpDomains[:tpCap]
	}
	// Every third party contributes at least one request (the page's
	// origin count is the point); extras are distributed afterwards.
	ei := 0
	for _, d := range tpDomains {
		tpEligible[ei].Host = d
		tpEligible[ei].ThirdParty = true
		ei++
	}
	for _, d := range tpDomains {
		if ei >= tpCap {
			break
		}
		for j := geometric(rng, 0.55); j > 0 && ei < tpCap; j-- {
			tpEligible[ei].Host = d
			tpEligible[ei].ThirdParty = true
			ei++
		}
	}

	// Remaining objects are first-party. Delivery is host-consistent:
	// everything on static.<domain> rides the CDN contract (the paper's
	// CNAME-based attribution then agrees with ground truth), while
	// assets.<domain> and img.<domain> stay on the origin.
	eligibleByteFrac := 0.85
	pCDN := clamp01(cdnFrac / eligibleByteFrac)
	for _, o := range m.Objects[1:] {
		if o.Host != "" {
			continue
		}
		cdnEligible := o.Role == RoleCSS || o.Role == RoleJS || o.Role == RoleImage ||
			o.Role == RoleFont || o.Role == RoleMedia
		if cdnEligible && prof.CDNProvider != "" && rng.Float64() < pCDN {
			o.ViaCDN = prof.CDNProvider
			if rng.Float64() < 0.3 {
				// Served from the provider's own hostname rather than the
				// CNAMEd first-party subdomain.
				o.Host = "assets-" + shortLabel(s.Domain) + "." + prof.CDNProvider + ".net"
			} else {
				o.Host = staticHost
			}
			continue
		}
		switch o.Role {
		case RoleCSS, RoleJS, RoleFont:
			o.Host = "assets." + s.Domain
		case RoleImage, RoleMedia:
			o.Host = imgHost
		default:
			o.Host = s.Host()
		}
	}

	// Third-party static infrastructure (fonts, JS libraries, video) is
	// itself CDN-delivered.
	for _, o := range m.Objects[1:] {
		if o.ThirdParty && !o.Tracker && (o.Role == RoleFont || o.Role == RoleJS || o.Role == RoleMedia) && rng.Float64() < 0.6 {
			o.ViaCDN = cdnProviderNames[rng.Intn(len(cdnProviderNames))]
		}
	}
}

// shortLabel compresses a domain into a DNS label.
func shortLabel(domain string) string {
	out := make([]byte, 0, len(domain))
	for i := 0; i < len(domain); i++ {
		c := domain[i]
		if c == '.' {
			c = '-'
		}
		out = append(out, c)
	}
	return string(out)
}

// trackerPool returns the site's ad/analytics vendor roster.
func (s *Site) trackerPool() []string {
	rng := rngForKey(s.seed, "trackers")
	trackers := s.web.trackers
	k := 3 + rng.Intn(8)
	pool := make([]string, 0, k)
	for _, idx := range sampleDistinct(rng, len(trackers), k, 1.0) {
		pool = append(pool, trackers[idx])
	}
	return pool
}

// tpRoster returns the site's benign third-party roster, head = core,
// as indexes into Web.benign. It is drawn on the first call and shared
// by every later Build of the site's pages.
func (s *Site) tpRoster() []uint16 {
	s.rosterOnce.Do(func() {
		rng := rngForKey(s.seed, "tproster")
		n := len(s.web.benign)
		size := min(s.Profile.TPPoolSize, n)
		s.roster = make([]uint16, 0, size)
		for _, idx := range sampleDistinct(rng, n, size, 0.7) {
			s.roster = append(s.roster, uint16(idx))
		}
	})
	return s.roster
}

// zipf draws indexes in [0,n) with P(i) ∝ 1/(i+1)^s, via inverse CDF on
// the continuous approximation (with the s→1 limit handled). newZipf
// computes the draw's invariants once; each draw passes Pow, Exp and Log
// the same operands as computing them per draw would.
type zipf struct {
	n      int
	log    bool    // s≈1: CDF(x) = ln(x)/ln(n) on [1, n]
	lnN    float64 // ln n, when log
	tm1    float64 // n^(1-s) - 1, when !log
	invExp float64 // 1/(1-s), when !log
}

func newZipf(n int, s float64) zipf {
	z := zipf{n: n}
	if math.Abs(s-1) < 1e-9 {
		z.log = true
		z.lnN = math.Log(float64(n))
	} else {
		z.tm1 = math.Pow(float64(n), 1-s) - 1
		z.invExp = 1 / (1 - s)
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	if z.n <= 1 { // index 0, without a draw from rng
		return 0
	}
	u := rng.Float64()
	var x float64
	if z.log {
		x = math.Exp(u * z.lnN)
	} else {
		x = math.Pow(u*z.tm1+1, z.invExp)
	}
	idx := int(x) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}

// sampleDistinct draws k distinct zipf-weighted indices from [0,n),
// falling back to sequential fill if rejection sampling stalls.
func sampleDistinct(rng *rand.Rand, n, k int, s float64) []int {
	if k > n {
		k = n
	}
	z := newZipf(n, s)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for attempts := 0; len(out) < k && attempts < 40*k+100; attempts++ {
		idx := z.draw(rng)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	for i := 0; len(out) < k && i < n; i++ {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// assignDepths places objects in the dependency tree (§5.4): CSS loads at
// depth 1; deeper objects hang off stylesheet/script/iframe containers.
func (p *Page) assignDepths(rng *rand.Rand, m *PageModel, mix DepthMix) {
	containersAt := map[int][]int{0: {0}} // depth -> object indexes able to trigger fetches
	// First pass: target depths.
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		var d int
		switch o.Role {
		case RoleCSS:
			d = 1
		case RoleBeacon, RoleAdJS, RoleAdImage, RoleBid:
			// Tracking fires from scripts: depth ≥ 2.
			if rng.Float64() < 0.7 {
				d = 2
			} else {
				d = 3
			}
		default:
			x := rng.Float64()
			switch {
			case x < mix.D5:
				d = 5
			case x < mix.D5+mix.D4:
				d = 4
			case x < mix.D5+mix.D4+mix.D3:
				d = 3
			case x < mix.D5+mix.D4+mix.D3+mix.D2:
				d = 2
			default:
				d = 1
			}
		}
		o.Depth = d
	}
	// Second pass, in depth order: wire parents; demote when no
	// container exists one level up.
	order := make([]int, len(m.Objects)-1)
	for i := range order {
		order[i] = i + 1
	}
	sort.SliceStable(order, func(a, b int) bool { return m.Objects[order[a]].Depth < m.Objects[order[b]].Depth })
	var buf []int // one candidate buffer for every object and depth
	for _, i := range order {
		o := m.Objects[i]
		for o.Depth > 1 {
			parents := containersAt[o.Depth-1]
			// CSS children can only be images and fonts.
			ok := buf[:0]
			for _, pi := range parents {
				pr := m.Objects[pi].Role
				if pr == RoleCSS && o.Role != RoleImage && o.Role != RoleFont {
					continue
				}
				ok = append(ok, pi)
			}
			buf = ok
			if len(ok) > 0 {
				o.Parent = ok[rng.Intn(len(ok))]
				break
			}
			o.Depth--
		}
		if o.Depth <= 1 {
			o.Depth = 1
			o.Parent = 0
		}
		if o.Role == RoleCSS || o.Role == RoleJS || o.Role == RoleIframe || o.Role == RoleAdJS {
			containersAt[o.Depth] = append(containersAt[o.Depth], i)
		}
	}
	// Render blocking & async flags. Landing pages are hand-optimized
	// more aggressively (§4: developers polish the landing page): their
	// critical CSS is inlined (so fewer stylesheets block first paint)
	// and more of their scripts load async.
	prof := &p.Site.Profile
	asyncP := prof.AsyncJSInternal
	blockingCSS := 1.0
	if p.IsLanding() {
		asyncP = prof.AsyncJSLanding
		blockingCSS = prof.BlockingCSSLanding
	}
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		if o.Depth == 1 {
			switch o.Role {
			case RoleCSS:
				o.RenderBlocking = rng.Float64() < blockingCSS
			case RoleJS:
				o.Async = rng.Float64() < asyncP
				o.RenderBlocking = !o.Async
			}
		} else if o.Role == RoleJS || o.Role == RoleAdJS {
			o.Async = true
		}
	}
}

// assignSizes draws object sizes to honour the page's total size and
// byte-level content mix (Fig 4c).
func (p *Page) assignSizes(rng *rand.Rand, m *PageModel, total float64, mix ContentMix) {
	mix = mix.normalize()
	type bucket struct {
		objs  []*Object
		share float64
	}
	buckets := map[string]*bucket{
		"js":      {share: mix.JS},
		"image":   {share: mix.Image},
		"htmlcss": {share: mix.HTMLCSS},
		"other":   {share: mix.Other},
	}
	fixed := 0.0
	for i, o := range m.Objects {
		switch o.Role {
		case RoleDoc:
			// Root documents are tens to a few hundreds of KB; they must
			// not soak up the page's whole HTML/CSS byte budget or the
			// root fetch dominates every load.
			o.Size = int64(logNormal(rng, 65e3, 0.7))
			if o.Size < 15e3 {
				o.Size = 15e3
			}
			if o.Size > 350e3 {
				o.Size = 350e3
			}
			fixed += float64(o.Size)
		case RoleBeacon, RoleBid:
			o.Size = int64(120 + rng.Intn(1800))
			fixed += float64(o.Size)
		case RoleAdImage:
			o.Size = int64(2000 + rng.Intn(30000))
			fixed += float64(o.Size)
		case RoleJS, RoleAdJS:
			buckets["js"].objs = append(buckets["js"].objs, o)
		case RoleImage:
			buckets["image"].objs = append(buckets["image"].objs, o)
		case RoleCSS, RoleIframe:
			buckets["htmlcss"].objs = append(buckets["htmlcss"].objs, o)
		default:
			buckets["other"].objs = append(buckets["other"].objs, o)
		}
		_ = i
	}
	budget := total - fixed
	if budget < 5e4 {
		budget = 5e4
	}
	variant := 0
	for _, name := range [...]string{"js", "image", "htmlcss", "other"} {
		b := buckets[name]
		if len(b.objs) == 0 {
			continue
		}
		weights := make([]float64, len(b.objs))
		sum := 0.0
		for i, o := range b.objs {
			w := math.Exp(rng.NormFloat64() * 0.9)
			switch o.Role {
			case RoleMedia:
				w *= 6
			case RoleFont:
				w *= 1.5
			}
			weights[i] = w
			sum += w
		}
		for i, o := range b.objs {
			size := budget * b.share * weights[i] / sum
			if size < 250 {
				size = 250
			}
			o.Size = int64(size)
			o.MIME = o.Role.MIME(variant)
			variant++
		}
	}
	// MIME for fixed-size roles.
	for i, o := range m.Objects {
		if o.MIME == "" {
			o.MIME = o.Role.MIME(i)
		}
	}
	// Visual weights: images and media paint; everything else barely.
	for _, o := range m.Objects {
		switch o.Role {
		case RoleImage, RoleAdImage:
			o.VisualWeight = math.Min(20, float64(o.Size)/20000)
		case RoleMedia:
			o.VisualWeight = 8
		case RoleIframe:
			o.VisualWeight = 3
		}
	}
}

// assignCacheability marks non-cacheable objects to hit the page-type
// target (Fig 4a), skewing the choice toward small dynamic responses so
// the cacheable-bytes fraction stays similar between page types.
func (p *Page) assignCacheability(rng *rand.Rand, m *PageModel, landing bool) {
	prof := &p.Site.Profile
	frac := prof.NCFracInternal
	if landing {
		frac = clamp01(prof.NCFracInternal * prof.NCCountRatio / prof.ObjRatio)
		// Bounded so cacheable *bytes* stay comparable between page
		// types, as the paper observes (§5.1).
		if frac > 0.62 {
			frac = 0.62
		}
	}
	target := int(frac * float64(len(m.Objects)))
	count := 0
	// Always-dynamic objects first.
	for _, o := range m.Objects {
		switch o.Role {
		case RoleDoc, RoleBeacon, RoleBid, RoleAdJS, RoleAdImage:
			o.Cacheable = false
			count++
		case RoleJSON, RoleData:
			if rng.Float64() < 0.7 {
				o.Cacheable = false
				count++
			} else {
				o.Cacheable = true
			}
		default:
			o.Cacheable = true
		}
	}
	// Converge on the target: mark small static objects non-cacheable
	// when short, or re-mark dynamic-but-cacheable responses (API
	// results with max-age) when over.
	idx := rng.Perm(len(m.Objects) - 1)
	for _, j := range idx {
		if count >= target {
			break
		}
		o := m.Objects[j+1]
		if o.Cacheable && (o.Role == RoleJS || o.Role == RoleImage) && o.Size < 60000 {
			o.Cacheable = false
			count++
		}
	}
	for _, j := range idx {
		if count <= target {
			break
		}
		o := m.Objects[j+1]
		if !o.Cacheable && (o.Role == RoleJSON || o.Role == RoleData) {
			o.Cacheable = true
			count--
		}
	}
}

// assignMixedContent downgrades a few image fetches to plain HTTP on
// pages flagged for passive mixed content (§6.1).
func (p *Page) assignMixedContent(rng *rand.Rand, m *PageModel, landing bool) {
	if m.Objects[0].Scheme != "https" {
		return
	}
	prof := &p.Site.Profile
	mixed := false
	if landing {
		mixed = prof.MixedLanding
	} else {
		mixed = prof.MixedInternalProb > 0 &&
			noise01KeyIdx(p.Site.seed, "mixed", p.Index) < prof.MixedInternalProb
	}
	if !mixed {
		return
	}
	downgraded := 0
	want := 1 + rng.Intn(4)
	for _, o := range m.Objects[1:] {
		if downgraded >= want {
			break
		}
		if o.Role == RoleImage || o.Role == RoleBeacon || o.Role == RoleAdImage {
			o.Scheme = "http"
			downgraded++
		}
	}
}

// assignHints emits resource hints (§5.5) and marks preloaded objects.
func (p *Page) assignHints(rng *rand.Rand, m *PageModel, landing bool) {
	prof := &p.Site.Profile
	count := prof.HintsInternal
	if landing {
		count = prof.HintsLanding
	}
	if count <= 0 {
		return
	}
	// Collect distinct non-root origins and deep objects worth preloading.
	originSet := make(map[string]bool)
	var origins []string
	var preloadable []int
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		key := o.Scheme + "://" + o.Host
		if !originSet[key] && o.Host != m.Objects[0].Host {
			originSet[key] = true
			origins = append(origins, key)
		}
		if o.Depth >= 2 && (o.Role == RoleCSS || o.Role == RoleJS || o.Role == RoleFont || o.Role == RoleImage) {
			preloadable = append(preloadable, i)
		}
	}
	for h := 0; h < count; h++ {
		x := rng.Float64()
		switch {
		case x < 0.45 && len(origins) > 0:
			m.Hints = append(m.Hints, Hint{Type: htmlx.HintDNSPrefetch, Target: origins[rng.Intn(len(origins))], ObjectIndex: -1})
		case x < 0.75 && len(origins) > 0:
			m.Hints = append(m.Hints, Hint{Type: htmlx.HintPreconnect, Target: origins[rng.Intn(len(origins))], ObjectIndex: -1})
		case x < 0.95 && len(preloadable) > 0:
			oi := preloadable[rng.Intn(len(preloadable))]
			m.Objects[oi].Preloaded = true
			m.Hints = append(m.Hints, Hint{Type: htmlx.HintPreload, Target: m.Objects[oi].URL, ObjectIndex: oi})
		default:
			if len(preloadable) > 0 {
				oi := preloadable[rng.Intn(len(preloadable))]
				m.Hints = append(m.Hints, Hint{Type: htmlx.HintPrefetch, Target: m.Objects[oi].URL, ObjectIndex: oi})
			} else if len(origins) > 0 {
				m.Hints = append(m.Hints, Hint{Type: htmlx.HintDNSPrefetch, Target: origins[rng.Intn(len(origins))], ObjectIndex: -1})
			}
		}
	}
}

// assignPopularity sets the global request popularity per object.
//
// Three tiers matter for cache warmth: site-wide shared assets (app
// bundles, stylesheets, fonts — requested on every page view of the
// site, identical for landing and internal pages), page-specific content
// (the document itself, article images, API responses — requested only
// when *this* page is viewed, so landing-page URLs are far hotter than
// any single internal page's), and global third-party infrastructure.
// World sites' content is rarely requested from the US vantage region,
// so their warmth collapses there (the Fig 9a / Fig 10c reversal).
func (p *Page) assignPopularity(rng *rand.Rand, m *PageModel) {
	s := p.Site
	sitePop := math.Pow(s.Popularity(), 0.3)
	world := 1.0
	if s.Category == CatWorld {
		world = 0.12
	}
	landing := p.IsLanding()
	boost := s.Profile.LandingPopBoost
	jitter := func() float64 { return 0.85 + rng.Float64()*0.3 }
	for _, o := range m.Objects {
		switch {
		case o.Tracker:
			// Ad/analytics endpoints are globally hot (but they are
			// dynamic responses, so this mostly affects DNS warmth).
			o.Popularity = 0.8 * jitter()
		case o.ThirdParty:
			// Third-party popularity follows the global directory order:
			// the ubiquitous head (fonts, big JS libraries) is hot
			// everywhere; the long tail — which internal pages lean on
			// (Fig 8b) — is cold and slower to serve (Fig 7).
			idx := s.web.tpIndex[o.Host]
			o.Popularity = 0.85 / (1 + float64(idx)/45) * world * jitter()
		case o.Role == RoleCSS || o.Role == RoleJS || o.Role == RoleFont:
			// Site-wide shared assets: equally hot for both page types.
			o.Popularity = sitePop * world * jitter()
		case o.Role == RoleDoc:
			if landing {
				o.Popularity = sitePop * boost * world * jitter()
			} else {
				o.Popularity = sitePop * 0.38 * world * jitter()
			}
		default:
			// Page-specific media and data.
			if landing {
				o.Popularity = sitePop * 1.2 * world * jitter()
			} else {
				o.Popularity = sitePop * 0.45 * world * jitter()
			}
		}
	}
}

// buildLinks fills the page's outgoing links: landing pages link broadly
// into the site; internal pages link to a handful of related pages and
// home.
func (p *Page) buildLinks(rng *rand.Rand, m *PageModel, landing bool) {
	s := p.Site
	pool := s.PoolSize()
	var linkCount int
	if landing {
		linkCount = 30 + rng.Intn(50)
	} else {
		linkCount = 8 + rng.Intn(22)
	}
	m.links = make([]int, 0, linkCount+1)
	for _, ix := range sampleDistinct(rng, pool, linkCount+1, 0.6) {
		idx := 1 + ix
		if idx == p.Index || len(m.links) >= linkCount {
			continue
		}
		m.links = append(m.links, idx)
	}
	if !landing {
		m.links = append(m.links, 0)
	}
}

// objectPath renders a role-appropriate URL path.
func objectPath(rng *rand.Rand, o *Object, pageIdx, i int) string {
	u := pageIdx*1000 + i // unique-per-page identifier
	switch o.Role {
	case RoleCSS:
		return "/assets/css/style-" + strconv.Itoa(u) + ".css"
	case RoleJS:
		return "/assets/js/app-" + strconv.Itoa(u) + ".js"
	case RoleImage:
		ext := [...]string{"jpg", "png", "webp", "gif"}[rng.Intn(4)]
		return "/img/photo-" + strconv.Itoa(u) + "." + ext
	case RoleFont:
		return "/fonts/face-" + strconv.Itoa(u) + ".woff2"
	case RoleJSON:
		return "/api/data-" + strconv.Itoa(u) + ".json"
	case RoleMedia:
		return "/media/clip-" + strconv.Itoa(u) + ".mp4"
	case RoleData:
		return "/static/blob-" + strconv.Itoa(u) + ".txt"
	case RoleIframe:
		return "/embed/frame-" + strconv.Itoa(u)
	case RoleBeacon:
		if o.Tracker {
			return "/pixel?id=" + strconv.Itoa(u)
		}
		// First-party or benign telemetry: not on filter lists.
		return "/telemetry/collect?v=" + strconv.Itoa(u)
	case RoleAdJS:
		return "/ads/tag-" + strconv.Itoa(u) + ".js"
	case RoleAdImage:
		return "/ads/creative-" + strconv.Itoa(u) + ".jpg"
	case RoleBid:
		return "/track?bid=" + strconv.Itoa(u)
	default:
		return "/static/obj-" + strconv.Itoa(u)
	}
}

// poisson draws a Poisson variate (Knuth's method; fine for small means).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation for large means.
		v := int(mean + rng.NormFloat64()*math.Sqrt(mean))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
