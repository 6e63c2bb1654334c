package webgen

import (
	"math"
	"math/bits"
	"math/rand"

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

// Origin returns the object's origin, scheme://host. Every model
// object's URL starts with it, so Origin slices it out without
// allocating.
func (o *Object) Origin() string {
	return o.URL[:len(o.Scheme)+len("://")+len(o.Host)]
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
// markup metadata needed by crawler, browser, and analyses. A model a
// Builder returns is rebuilt in place by the builder's next Build.
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

// Build generates p's object tree into the builder's storage. The
// model stays valid until the next Build on b.
func (b *Builder) Build(p *Page) *PageModel {
	s := p.Site
	prof := &s.Profile
	rng := reseed(&b.rng, subSeedKeyIdx(s.seed, "page-model", p.Index))
	first := b.p == nil
	newSite := first || b.p.Site != s
	b.p = p
	// The last build's objects, and every kept slice that points at
	// them or their strings, are zeroed, not just cut off: a slot this
	// build leaves unused must not keep an old slab or an arena chunk
	// reachable.
	m := &b.m
	clear(b.objs)
	clear(m.Objects)
	clear(b.hints)
	clear(b.eligible)
	clear(b.origins)
	for k := range b.buckets {
		clear(b.buckets[k])
	}
	b.objs = b.objs[:0]
	*m = PageModel{Page: p, Objects: m.Objects[:0], links: m.links[:0]}

	landing := p.IsLanding()
	target, redirected := p.RedirectsToInsecure()

	// The page URL, and with it the site host, in one allocation of its
	// own: measurements keep the URL, so it is not cut from the arena.
	base := p.baseScheme()
	var ub [160]byte
	m.URL = string(p.appendURL(ub[:0], &b.aux))
	hostAt := len(base) + len("://")
	host := m.URL[hostAt : hostAt+len("www.")+len(s.Domain)]

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

	pageScheme := base
	if redirected {
		pageScheme = "http"
	}

	// Size the slab for the page up front: root, regular objects, the
	// header-bidding wrapper and bids, trackers and a redirect hop.
	slots := max(n, 6+trackerCount) + 3 + 2*max(prof.AdSlotsLanding, prof.AdSlotsIntern+1)
	// A slab grown past maxKeptObjects for one site's big pages is not
	// kept for the next site's.
	if cap(b.objs) < slots || newSite && cap(b.objs) > max(slots, maxKeptObjects) {
		b.objs = make([]Object, 0, slots)
	}
	// A first build sizes the arena for this page alone (its strings
	// average under 80 bytes an object, and stay under 96); a builder
	// that builds again takes chunks that serve several pages.
	b.strs.chunk = slots*96 + 256
	if !first {
		b.strs.chunk = max(b.strs.chunk, arenaChunk)
	}

	// --- Root document ---
	// On a §6.1 redirect page the root's URL is replaced by the target
	// when the redirect hop is prepended; until then nothing reads it.
	root := b.object(Object{
		URL:          m.URL,
		Host:         host,
		Scheme:       pageScheme,
		Role:         RoleDoc,
		MIME:         "text/html",
		Depth:        0,
		Parent:       -1,
		Cacheable:    false, // dynamic HTML (CDNs may still micro-cache it)
		VisualWeight: 15,
	})
	if prof.CDNProvider != "" && prof.DocViaCDN {
		root.ViaCDN = prof.CDNProvider
	}

	// --- Regular objects ---
	regular := n - 1 - trackerCount
	if regular < 5 {
		regular = 5
	}
	for i := 0; i < regular; i++ {
		b.object(Object{Role: drawRole(rng, landing), Scheme: pageScheme})
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
		b.object(Object{Role: RoleAdJS, Scheme: pageScheme, Tracker: true})
		for i := 0; i < m.AdSlots*2; i++ {
			b.object(Object{Role: RoleBid, Scheme: pageScheme, Tracker: true})
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
		b.object(Object{Role: role, Scheme: pageScheme, Tracker: true})
	}

	b.assignHosts(rng, host, domTarget, cdnFrac, landing)
	b.assignDepths(rng, depths)
	b.assignSizes(rng, total, mix)
	b.assignCacheability(rng, landing)
	b.assignMixedContent(rng, landing)
	b.assignURLs(rng) // schemes and hosts are final here
	b.assignHints(rng, landing)
	p.assignPopularity(rng, m)
	b.buildLinks(rng, landing)
	if redirected {
		b.wrapInsecureRedirect(target, host)
	}
	b.assignValidators() // after wrapInsecureRedirect: URLs are final here
	return m
}

// wrapInsecureRedirect prepends the §6.1 redirect hop for HTTPS URLs
// that forward to plain-HTTP content on a foreign domain: the original
// URL answers 301 and the whole document tree shifts one dependency
// level deeper, now served over HTTP from the target host.
func (b *Builder) wrapInsecureRedirect(target, host string) {
	m := &b.m
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
	redirect := b.object(Object{
		URL:        m.RedirectedFrom,
		Host:       host,
		Scheme:     "https",
		Role:       RoleRedirect,
		MIME:       "text/html",
		Size:       320,
		Depth:      0,
		Parent:     -1,
		Cacheable:  false,
		Popularity: doc.Popularity,
	})
	copy(m.Objects[1:], m.Objects[:len(m.Objects)-1])
	m.Objects[0] = redirect
	for i := range m.Hints {
		if m.Hints[i].ObjectIndex >= 0 {
			m.Hints[i].ObjectIndex++
		}
	}
}

// assignURLs renders the final URL of every non-root object: the
// origin, scheme://host, then the role's path, so URL always starts
// with the object's origin.
func (b *Builder) assignURLs(rng *rand.Rand) {
	a := &b.strs
	for i, o := range b.m.Objects {
		if i == 0 {
			continue
		}
		a.open(len(o.Scheme) + len("://") + len(o.Host) + maxObjectPath)
		a.add(o.Scheme)
		a.add("://")
		a.add(o.Host)
		b.addObjectPath(rng, o, i)
		o.URL = a.close()
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
// domains, aiming for the page's unique-origin target (Fig 5). host is
// the site's web host.
func (b *Builder) assignHosts(rng *rand.Rand, host string, domTarget, cdnFrac float64, landing bool) {
	s := b.p.Site
	prof := &s.Profile
	objs := b.m.Objects
	a := &b.strs
	staticHost := a.concat("static.", s.Domain)
	imgHost := a.concat("img.", s.Domain)
	assetsHost := a.concat("assets.", s.Domain)

	// Tracker hosts first: the site embeds a handful of ad/analytics
	// vendors; every tracking request goes to one of them. The pool
	// holds at most ten vendors, so one bit per vendor counts the
	// distinct ones the page contacts.
	b.trackers = s.appendTrackerPool(b.trackers[:0], &b.aux, &b.pick)
	trackerPool := b.trackers
	var used uint64
	for _, o := range objs {
		if o.Tracker {
			k := rng.Intn(len(trackerPool))
			o.Host = trackerPool[k]
			o.ThirdParty = true
			used |= 1 << k
		}
	}

	// Benign third parties: enough distinct domains to reach the origin
	// target after the first-party hosts (www/assets/img/static/CDN) and
	// trackers are counted.
	tpBudget := int(domTarget*math.Exp(rng.NormFloat64()*0.12)) - 6 - bits.OnesCount64(used)
	if tpBudget < 0 {
		tpBudget = 0
	}
	roster, benign := s.tpRoster(), s.web.benign
	tpDomains := b.tpDomains[:0]
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
		for _, idx := range b.pick.sample(rng, len(roster), tpBudget, 0.55) {
			tpDomains = append(tpDomains, benign[roster[idx]])
		}
	}
	b.tpDomains = tpDomains

	// Candidate objects for third-party hosting. Third parties may absorb
	// at most ~60% of the eligible objects so that small pages retain
	// their first-party (and CDN-served) assets.
	tpEligible := b.eligible[:0]
	for _, o := range objs[1:] {
		if o.Tracker {
			continue
		}
		switch o.Role {
		case RoleJS, RoleImage, RoleFont, RoleJSON, RoleIframe, RoleMedia, RoleBeacon:
			tpEligible = append(tpEligible, o)
		}
	}
	b.eligible = tpEligible
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
	providerHost := ""
	for _, o := range objs[1:] {
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
				if providerHost == "" {
					providerHost = a.concat("assets-", shortLabel(s.Domain), ".", prof.CDNProvider, ".net")
				}
				o.Host = providerHost
			} else {
				o.Host = staticHost
			}
			continue
		}
		switch o.Role {
		case RoleCSS, RoleJS, RoleFont:
			o.Host = assetsHost
		case RoleImage, RoleMedia:
			o.Host = imgHost
		default:
			o.Host = host
		}
	}

	// Third-party static infrastructure (fonts, JS libraries, video) is
	// itself CDN-delivered.
	for _, o := range objs[1:] {
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

// appendTrackerPool appends the site's ad/analytics vendor roster to
// dst, drawing from *g re-seeded with the site's "trackers" stream.
func (s *Site) appendTrackerPool(dst []string, g **rand.Rand, pick *distinct) []string {
	rng := reseed(g, subSeedKey(s.seed, "trackers"))
	trackers := s.web.trackers
	k := 3 + rng.Intn(8)
	for _, idx := range pick.sample(rng, len(trackers), k, 1.0) {
		dst = append(dst, trackers[idx])
	}
	return dst
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

// assignDepths places objects in the dependency tree (§5.4): CSS loads at
// depth 1; deeper objects hang off stylesheet/script/iframe containers.
func (b *Builder) assignDepths(rng *rand.Rand, mix DepthMix) {
	objs := b.m.Objects
	// First pass: target depths.
	for i, o := range objs {
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
	// Second pass, in depth order (ties in index order, as a stable sort
	// of the indexes by depth leaves them): wire parents; demote when no
	// container exists one level up.
	order := b.order[:0]
	for d := 1; d <= maxObjectDepth; d++ {
		for i := 1; i < len(objs); i++ {
			if objs[i].Depth == d {
				order = append(order, i)
			}
		}
	}
	b.order = order
	// containersAt[d] lists the objects at depth d able to trigger
	// fetches.
	containersAt := &b.containers
	for d := range containersAt {
		containersAt[d] = containersAt[d][:0]
	}
	containersAt[0] = append(containersAt[0], 0)
	buf := b.cands // one candidate buffer for every object and depth
	for _, i := range order {
		o := objs[i]
		for o.Depth > 1 {
			parents := containersAt[o.Depth-1]
			// CSS children can only be images and fonts.
			ok := buf[:0]
			for _, pi := range parents {
				pr := objs[pi].Role
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
	b.cands = buf
	// Render blocking & async flags. Landing pages are hand-optimized
	// more aggressively (§4: developers polish the landing page): their
	// critical CSS is inlined (so fewer stylesheets block first paint)
	// and more of their scripts load async.
	prof := &b.p.Site.Profile
	asyncP := prof.AsyncJSInternal
	blockingCSS := 1.0
	if b.p.IsLanding() {
		asyncP = prof.AsyncJSLanding
		blockingCSS = prof.BlockingCSSLanding
	}
	for i, o := range objs {
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

// Byte buckets of assignSizes, in the order their sizes are drawn.
const (
	bucketJS = iota
	bucketImage
	bucketHTMLCSS
	bucketOther
)

// assignSizes draws object sizes to honour the page's total size and
// byte-level content mix (Fig 4c).
func (b *Builder) assignSizes(rng *rand.Rand, total float64, mix ContentMix) {
	objs := b.m.Objects
	mix = mix.normalize()
	shares := [...]float64{bucketJS: mix.JS, bucketImage: mix.Image, bucketHTMLCSS: mix.HTMLCSS, bucketOther: mix.Other}
	buckets := &b.buckets
	for k := range buckets {
		buckets[k] = buckets[k][:0]
	}
	fixed := 0.0
	for _, o := range objs {
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
			buckets[bucketJS] = append(buckets[bucketJS], o)
		case RoleImage:
			buckets[bucketImage] = append(buckets[bucketImage], o)
		case RoleCSS, RoleIframe:
			buckets[bucketHTMLCSS] = append(buckets[bucketHTMLCSS], o)
		default:
			buckets[bucketOther] = append(buckets[bucketOther], o)
		}
	}
	budget := total - fixed
	if budget < 5e4 {
		budget = 5e4
	}
	variant := 0
	for k, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		weights := b.weights[:0]
		sum := 0.0
		for _, o := range bucket {
			w := math.Exp(rng.NormFloat64() * 0.9)
			switch o.Role {
			case RoleMedia:
				w *= 6
			case RoleFont:
				w *= 1.5
			}
			weights = append(weights, w)
			sum += w
		}
		b.weights = weights
		for i, o := range bucket {
			size := budget * shares[k] * weights[i] / sum
			if size < 250 {
				size = 250
			}
			o.Size = int64(size)
			o.MIME = o.Role.MIME(variant)
			variant++
		}
	}
	// MIME for fixed-size roles.
	for i, o := range objs {
		if o.MIME == "" {
			o.MIME = o.Role.MIME(i)
		}
	}
	// Visual weights: images and media paint; everything else barely.
	for _, o := range objs {
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
func (b *Builder) assignCacheability(rng *rand.Rand, landing bool) {
	m := &b.m
	prof := &b.p.Site.Profile
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
	idx := b.perm[:0]
	for range len(m.Objects) - 1 {
		idx = append(idx, 0)
	}
	permInto(rng, idx)
	b.perm = idx
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
func (b *Builder) assignMixedContent(rng *rand.Rand, landing bool) {
	m, p := &b.m, b.p
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
func (b *Builder) assignHints(rng *rand.Rand, landing bool) {
	m := &b.m
	prof := &b.p.Site.Profile
	count := prof.HintsInternal
	if landing {
		count = prof.HintsLanding
	}
	if count <= 0 {
		return
	}
	// Collect distinct non-root origins and deep objects worth preloading.
	if b.originSet == nil {
		b.originSet = make(map[string]bool)
	}
	originSet := b.originSet
	clear(originSet)
	origins := b.origins[:0]
	preloadable := b.preloadable[:0]
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		key := o.Origin()
		if !originSet[key] && o.Host != m.Objects[0].Host {
			originSet[key] = true
			origins = append(origins, key)
		}
		if o.Depth >= 2 && (o.Role == RoleCSS || o.Role == RoleJS || o.Role == RoleFont || o.Role == RoleImage) {
			preloadable = append(preloadable, i)
		}
	}
	b.origins, b.preloadable = origins, preloadable
	hints := b.hints[:0]
	for h := 0; h < count; h++ {
		x := rng.Float64()
		switch {
		case x < 0.45 && len(origins) > 0:
			hints = append(hints, Hint{Type: htmlx.HintDNSPrefetch, Target: origins[rng.Intn(len(origins))], ObjectIndex: -1})
		case x < 0.75 && len(origins) > 0:
			hints = append(hints, Hint{Type: htmlx.HintPreconnect, Target: origins[rng.Intn(len(origins))], ObjectIndex: -1})
		case x < 0.95 && len(preloadable) > 0:
			oi := preloadable[rng.Intn(len(preloadable))]
			m.Objects[oi].Preloaded = true
			hints = append(hints, Hint{Type: htmlx.HintPreload, Target: m.Objects[oi].URL, ObjectIndex: oi})
		default:
			if len(preloadable) > 0 {
				oi := preloadable[rng.Intn(len(preloadable))]
				hints = append(hints, Hint{Type: htmlx.HintPrefetch, Target: m.Objects[oi].URL, ObjectIndex: oi})
			} else if len(origins) > 0 {
				hints = append(hints, Hint{Type: htmlx.HintDNSPrefetch, Target: origins[rng.Intn(len(origins))], ObjectIndex: -1})
			}
		}
	}
	// The list becomes the model's only when it holds a hint: a page
	// without hints has a nil list, as a fresh build leaves it.
	b.hints = hints
	if len(hints) > 0 {
		m.Hints = hints
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
func (b *Builder) buildLinks(rng *rand.Rand, landing bool) {
	m, p := &b.m, b.p
	pool := p.Site.PoolSize()
	var linkCount int
	if landing {
		linkCount = 30 + rng.Intn(50)
	} else {
		linkCount = 8 + rng.Intn(22)
	}
	for _, ix := range b.pick.sample(rng, pool, linkCount+1, 0.6) {
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

// maxObjectPath bounds the length of an object path addObjectPath
// writes: its longest prefix, a page index below a million times a
// thousand, and an extension.
const maxObjectPath = len("/telemetry/collect?v=") + 20 + len(".woff2")

// addObjectPath writes a role-appropriate URL path for object i into
// the arena.
func (b *Builder) addObjectPath(rng *rand.Rand, o *Object, i int) {
	a := &b.strs
	u := b.p.Index*1000 + i // unique-per-page identifier
	prefix, suffix := "/static/obj-", ""
	switch o.Role {
	case RoleCSS:
		prefix, suffix = "/assets/css/style-", ".css"
	case RoleJS:
		prefix, suffix = "/assets/js/app-", ".js"
	case RoleImage:
		prefix, suffix = "/img/photo-", [...]string{".jpg", ".png", ".webp", ".gif"}[rng.Intn(4)]
	case RoleFont:
		prefix, suffix = "/fonts/face-", ".woff2"
	case RoleJSON:
		prefix, suffix = "/api/data-", ".json"
	case RoleMedia:
		prefix, suffix = "/media/clip-", ".mp4"
	case RoleData:
		prefix, suffix = "/static/blob-", ".txt"
	case RoleIframe:
		prefix = "/embed/frame-"
	case RoleBeacon:
		prefix = "/pixel?id="
		if !o.Tracker {
			// First-party or benign telemetry: not on filter lists.
			prefix = "/telemetry/collect?v="
		}
	case RoleAdJS:
		prefix, suffix = "/ads/tag-", ".js"
	case RoleAdImage:
		prefix, suffix = "/ads/creative-", ".jpg"
	case RoleBid:
		prefix = "/track?bid="
	}
	a.add(prefix)
	a.addInt(u)
	a.add(suffix)
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
