// Package core is the measurement-study engine: it turns page-load
// artifacts (HAR logs plus the page model) into the per-page and per-site
// metrics every analysis in the paper consumes, and runs whole studies
// over a Hispar list (landing pages fetched ten times, internal pages
// once, as in §3.1).
package core

import (
	"sort"
	"strings"
	"time"

	"repro/internal/adblock"
	"repro/internal/cdndetect"
	"repro/internal/depgraph"
	"repro/internal/har"
	"repro/internal/hb"
	"repro/internal/httpsem"
	"repro/internal/mimecat"
	"repro/internal/psl"
	"repro/internal/urlx"
	"repro/internal/webgen"
)

// Analyzers bundles the detection machinery the HAR pass needs.
type Analyzers struct {
	PSL     *psl.List
	Adblock *adblock.Engine
	CDN     *cdndetect.Detector
}

// PageMeasurement is everything the study extracts from one page fetch.
type PageMeasurement struct {
	URL       string
	Domain    string // site domain
	Rank      int
	Category  string
	IsLanding bool
	Scheme    string

	// Structure & size (§4).
	Bytes   int64
	Objects int

	// Performance (§4).
	PLT        time.Duration // navigationStart → firstPaint
	SpeedIndex time.Duration
	OnLoad     time.Duration

	// Cacheability (§5.1).
	NonCacheable   int
	CacheableBytes int64

	// Warm-load (repeat view) accounting. On a cold load TransferBytes
	// equals Bytes and NetworkRequests equals Objects; on a warm load
	// cache hits contribute no transfer and 304 revalidations only
	// headers.
	TransferBytes   int64
	NetworkRequests int
	CacheHits       int
	Revalidations   int

	// CDN delivery (§5.1).
	CDNBytes  int64
	CDNHits   int
	CDNMisses int

	// Content mix (§5.2): bytes per category, indexed by category.
	ContentBytes [mimecat.NumCategories]int64

	// Multi-origin content (§5.3).
	UniqueDomains int

	// Dependency structure (§5.4): object count per depth, index =
	// depth, last bucket = 5+.
	DepthCounts []int

	// Resource hints (§5.5).
	Hints int

	// Handshakes & wait (§5.6).
	Handshakes    int
	HandshakeTime time.Duration
	WaitTimes     []time.Duration // per object

	// Security (§6.1).
	MixedContent bool
	// InsecureRedirect marks an HTTPS URL that 301s to plain-HTTP
	// content on another domain (the §6.1 careers-site case).
	InsecureRedirect bool

	// Third parties (§6.2): unique third-party eTLD+1s contacted, in
	// order. Each name owns its bytes, and a measurer hands equal names
	// one shared copy.
	ThirdParties []string

	// Ads & trackers (§6.3).
	TrackerRequests int
	AdSlots         int
	HasHB           bool
}

// JSFraction returns the JS share of total bytes (Fig 4c).
func (p *PageMeasurement) JSFraction() float64 { return p.byteFrac(mimecat.CatJS) }

// ImageFraction returns the image share of total bytes.
func (p *PageMeasurement) ImageFraction() float64 { return p.byteFrac(mimecat.CatImage) }

// HTMLCSSFraction returns the HTML+CSS share of total bytes.
func (p *PageMeasurement) HTMLCSSFraction() float64 { return p.byteFrac(mimecat.CatHTMLCSS) }

func (p *PageMeasurement) byteFrac(c mimecat.Category) float64 {
	if p.Bytes == 0 {
		return 0
	}
	return float64(p.ContentBytes[c]) / float64(p.Bytes)
}

// CDNByteFraction returns the share of bytes attributed to CDNs.
func (p *PageMeasurement) CDNByteFraction() float64 {
	if p.Bytes == 0 {
		return 0
	}
	return float64(p.CDNBytes) / float64(p.Bytes)
}

// CacheableByteFraction returns the share of bytes that are cacheable.
func (p *PageMeasurement) CacheableByteFraction() float64 {
	if p.Bytes == 0 {
		return 0
	}
	return float64(p.CacheableBytes) / float64(p.Bytes)
}

// requestTypeOf maps a response's MIME category to the adblock request
// type. mime is the raw MIME type; only an HTML/CSS response reads it, to
// tell a stylesheet from a document by its normalised essence.
func requestTypeOf(c mimecat.Category, mime string) adblock.RequestType {
	switch c {
	case mimecat.CatJS:
		return adblock.TypeScript
	case mimecat.CatImage:
		return adblock.TypeImage
	case mimecat.CatHTMLCSS:
		if mimecat.Essence(mime) == "text/css" {
			return adblock.TypeStylesheet
		}
		return adblock.TypeSubdocument
	case mimecat.CatJSON:
		return adblock.TypeXHR
	case mimecat.CatAudio, mimecat.CatVideo:
		return adblock.TypeMedia
	case mimecat.CatFont:
		return adblock.TypeFont
	default:
		return adblock.TypeOther
	}
}

// entryClass is everything the measure pass derives from one entry's
// request URL and response MIME type, given the page URL and the
// analyzers: the part of an entry's reading that cannot change between
// loads of the same page. A measurer keeps the classes of the last page
// it measured, so a warm revisit or a landing re-fetch reads them
// instead of deriving them again.
type entryClass struct {
	// url and mime are the inputs the class was derived from; set marks
	// a derived class.
	url, mime string
	set       bool

	host    string           // urlx.Host of the request URL
	cat     mimecat.Category // the one mimecat.Of of the response MIME
	bids    hb.Signal        // the URL's header-bidding evidence
	blocked bool             // the adblock verdict
	// tp is the host's third-party eTLD+1, interned by the measurer, ""
	// for a first party. Only a host's first entry on a page needs it,
	// so it is derived on first use: tpSet marks it derived.
	tpSet bool
	tp    string
}

// classify derives the class of e on a page whose host is pageHost.
func classify(e *har.Entry, pageHost string, az Analyzers) entryClass {
	c := entryClass{
		set:  true,
		url:  e.Request.URL,
		mime: e.Response.MIMEType,
		host: urlx.Host(e.Request.URL),
		cat:  mimecat.Of(e.Response.MIMEType),
		bids: hb.Classify(strings.ToLower(e.Request.URL)),
	}
	if az.Adblock != nil {
		_, c.blocked = az.Adblock.Match(adblock.Request{
			URL:      e.Request.URL,
			Host:     c.host,
			Type:     requestTypeOf(c.cat, e.Response.MIMEType),
			PageHost: pageHost,
		})
	}
	return c
}

// measurer runs the HAR→metrics pass. A worker owns one for its whole
// run, so the pass keeps its per-page sets, its depth counter's storage,
// the last page's entry classes and its third-party names from one page
// to the next; MeasurePage and MeasureHAR run the same pass on a zero
// measurer. A stored class is reused only for the same page under the
// same analyzers, at the same entry position, with the same request URL
// and MIME type: it caches a pure function of those, and an interned
// name equals the name it stands for, so no measurement depends on what
// a measurer measured before.
type measurer struct {
	// az and pageURL are the page and analyzers classes were derived
	// for; classes[i] is the class of entry i of that page's last
	// measured log. Slots past len(classes) are zero.
	az      Analyzers
	pageURL string
	classes []entryClass
	// domains and thirdParties are the page's sets of hosts and
	// third-party eTLD+1s, emptied after every page.
	domains      map[string]bool
	thirdParties map[string]bool
	// depths counts dependency depths on index storage it keeps.
	depths depgraph.Counter
	// names interns third-party names: each maps to its own copy, which
	// every kept measurement naming that third party shares.
	names map[string]string
}

// maxKeptClasses bounds the class storage a measurer carries from one
// page to another: room for a typical page, as for the browser's log
// stores. Storage grown for a bigger page serves that page's logs and is
// dropped at the next page.
const maxKeptClasses = 256

// maxInternedNames bounds the names a measurer interns: several times the
// 446 distinct third parties of a 500-site warm study, 400 of them
// webgen's directory. Past the bound a name is cloned for the page that
// holds it, as if there were no table.
const maxInternedNames = 2048

// intern returns a copy of name that owns its bytes: the table's, which
// a name's first sight clones while the table has room, else a clone of
// its own. A name sliced from a host shares the bytes of the host's URL,
// which a page builder cuts from storage several pages share, so a kept
// measurement must not hold the name itself.
func (ms *measurer) intern(name string) string {
	if s, ok := ms.names[name]; ok {
		return s
	}
	s := strings.Clone(name)
	if len(ms.names) < maxInternedNames {
		if ms.names == nil {
			ms.names = make(map[string]string)
		}
		ms.names[s] = s
	}
	return s
}

// classesFor returns n class slots for a log of pageURL measured with
// az: the stored classes when they were derived for the same page and
// analyzers, else zeroed slots. Slots a shorter log leaves are zeroed,
// so no stored class keeps an earlier page's strings reachable.
func (ms *measurer) classesFor(pageURL string, az Analyzers, n int) []entryClass {
	if ms.pageURL != pageURL || ms.az != az {
		if cap(ms.classes) > maxKeptClasses {
			ms.classes = nil
		}
		clear(ms.classes)
		ms.pageURL, ms.az = pageURL, az
	}
	if cap(ms.classes) < n {
		c := n + n/4
		if n <= maxKeptClasses && c > maxKeptClasses {
			c = maxKeptClasses
		}
		grown := make([]entryClass, n, c)
		copy(grown, ms.classes)
		ms.classes = grown
	} else {
		clear(ms.classes[min(n, len(ms.classes)):])
		ms.classes = ms.classes[:n]
	}
	return ms.classes
}

// derivedFrom reports whether c was derived from e's request URL and
// MIME type.
func (c *entryClass) derivedFrom(e *har.Entry) bool {
	return c.set && c.url == e.Request.URL && c.mime == e.Response.MIMEType
}

// of returns c when it was derived from e's request URL and MIME type,
// else e's class derived afresh into c.
func (c *entryClass) of(e *har.Entry, pageHost string, az Analyzers) *entryClass {
	if !c.derivedFrom(e) {
		*c = classify(e, pageHost, az)
	}
	return c
}

// pageTimings is one fetch's timing sample: the seven fields
// medianizeTimings takes the median of across a landing page's fetches.
type pageTimings struct {
	PLT, SpeedIndex, OnLoad, HandshakeTime time.Duration
	Handshakes, CDNHits, CDNMisses         int
}

// newPageTimings starts a sample from the page-level timing marks.
func newPageTimings(log *har.Log) pageTimings {
	return pageTimings{
		PLT:        log.Page.Timings.FirstPaint,
		SpeedIndex: log.Page.Timings.SpeedIndex,
		OnLoad:     log.Page.Timings.OnLoad,
	}
}

// addEntry folds one entry's handshake and CDN cache evidence into t
// and reports whether a CDN served the entry over the network. It is the
// only code that fills those fields, for the full measure pass and the
// timings-only pass alike. host and hdr are the entry's parsed host and
// headers.
func (t *pageTimings) addEntry(e *har.Entry, host string, hdr *har.KnownHeaders, cdn *cdndetect.Detector) (viaCDN bool) {
	if e.Timings.NewConnection() {
		t.Handshakes++
		t.HandshakeTime += e.Timings.Handshake()
	}
	// CDN attribution and cache status — network responses only:
	// cache-served entries replay stored X-Cache headers that say
	// nothing about this load.
	if cdn == nil || e.FromCache != "" || e.Revalidated {
		return false
	}
	if _, ok := cdn.Attribute(host, hdr.Server, hdr.Via); !ok {
		return false
	}
	switch cdndetect.CacheStatus(hdr.XCache) {
	case 1:
		t.CDNHits++
	case -1:
		t.CDNMisses++
	}
	return true
}

// timings is the timings-only pass over a landing re-fetch: the sample
// the full pass's measurement of the same log carries, without the rest
// of the measurement. It reads each entry's host from the stored class
// when the class applies, and stores nothing.
func (ms *measurer) timings(log *har.Log, az Analyzers) pageTimings {
	t := newPageTimings(log)
	var classes []entryClass
	if ms.pageURL == log.Page.URL && ms.az == az {
		classes = ms.classes
	}
	for i := range log.Entries {
		e := &log.Entries[i]
		var host string
		if i < len(classes) && classes[i].derivedFrom(e) {
			host = classes[i].host
		} else {
			host = urlx.Host(e.Request.URL)
		}
		hdr := har.ScanHeaders(e.Response.Headers)
		t.addEntry(e, host, &hdr, az.CDN)
	}
	return t
}

// timings returns the measurement's timing sample.
func (p *PageMeasurement) timings() pageTimings {
	return pageTimings{
		PLT: p.PLT, SpeedIndex: p.SpeedIndex, OnLoad: p.OnLoad, HandshakeTime: p.HandshakeTime,
		Handshakes: p.Handshakes, CDNHits: p.CDNHits, CDNMisses: p.CDNMisses,
	}
}

// setTimings writes a timing sample into the measurement.
func (p *PageMeasurement) setTimings(t pageTimings) {
	p.PLT, p.SpeedIndex, p.OnLoad, p.HandshakeTime = t.PLT, t.SpeedIndex, t.OnLoad, t.HandshakeTime
	p.Handshakes, p.CDNHits, p.CDNMisses = t.Handshakes, t.CDNHits, t.CDNMisses
}

// MeasurePage computes a PageMeasurement from a page-load HAR and its
// model. Every network metric comes from the HAR, through the same pass
// as MeasureHAR; the model supplies only what the paper got from the DOM
// (resource hints, ad slots) and site metadata, mirroring the paper's
// pipeline.
func MeasurePage(log *har.Log, model *webgen.PageModel, az Analyzers) PageMeasurement {
	var ms measurer
	return ms.measurePage(log, model, az)
}

// measurePage is MeasurePage on ms.
func (ms *measurer) measurePage(log *har.Log, model *webgen.PageModel, az Analyzers) PageMeasurement {
	m := ms.measure(log, az)
	page := model.Page
	site := page.Site
	m.Domain = site.Domain
	m.Rank = site.Rank
	m.Category = string(site.Category)
	m.IsLanding = page.IsLanding()
	m.Scheme = page.Scheme()
	m.Hints = len(model.Hints)
	m.AdSlots = model.AdSlots // from the DOM, as in the paper
	return m
}

// MeasureHAR computes a PageMeasurement from a HAR log alone — no page
// model, no generator ground truth. This is the analysis path for
// externally produced archives (the output of `webmeasure -har`, or any
// HAR 1.2 capture): exactly what the paper's released analysis scripts
// consume. Every HAR-derived field, header bidding included, matches
// MeasurePage; the page type and scheme come from the URL, and the
// DOM-only and site fields (Domain, Rank, Category, Hints, AdSlots) stay
// zero.
func MeasureHAR(log *har.Log, az Analyzers) PageMeasurement {
	var ms measurer
	return ms.measureHAR(log, az)
}

// measureHAR is MeasureHAR on ms.
func (ms *measurer) measureHAR(log *har.Log, az Analyzers) PageMeasurement {
	m := ms.measure(log, az)
	m.IsLanding = urlx.IsLandingPage(log.Page.URL)
	m.Scheme = schemeOf(log.Page.URL)
	return m
}

// measure is the one HAR→metrics pass: it fills every PageMeasurement
// field a HAR decides and leaves the DOM and site fields to its callers.
// Each entry's URL- and MIME-derived facts come from its class, and its
// headers are scanned once; every analyzer takes its input from those.
func (ms *measurer) measure(log *har.Log, az Analyzers) PageMeasurement {
	m := PageMeasurement{
		URL:       log.Page.URL,
		Bytes:     log.TotalBytes(),
		Objects:   log.ObjectCount(),
		WaitTimes: make([]time.Duration, 0, len(log.Entries)),
	}
	t := newPageTimings(log)
	// Header bidding is detected from the wire (wrapper script + bid
	// burst), not taken from generator ground truth.
	var bids hb.Detector
	// Dependency structure is derived from HAR initiator records, the
	// paper's §5.4 method; the HAR's _depth extension is only a
	// cross-check (see tests).
	if dc, err := ms.depths.DepthCounts(log, 5); err == nil {
		m.DepthCounts = dc
	} else {
		m.DepthCounts = log.DepthCounts(5)
	}
	pageHost := urlx.Host(log.Page.URL)
	pageSite := ""
	if az.PSL != nil {
		pageSite = az.PSL.ETLDPlusOne(pageHost)
	}
	pageHTTPS := strings.HasPrefix(log.Page.URL, "https://")
	if ms.domains == nil {
		ms.domains = make(map[string]bool)
		ms.thirdParties = make(map[string]bool)
	}
	classes := ms.classesFor(log.Page.URL, az, len(log.Entries))

	for i := range log.Entries {
		e := &log.Entries[i]
		c := classes[i].of(e, pageHost, az)
		hdr := har.ScanHeaders(e.Response.Headers)
		if !ms.domains[c.host] {
			ms.domains[c.host] = true
			// Third parties by eTLD+1 (§6.2), once per host: a host is
			// first-party only when it shares the page's non-empty
			// eTLD+1 (psl.SameSite, with the page side computed
			// once).
			if az.PSL != nil {
				if !c.tpSet {
					if tp := az.PSL.ETLDPlusOne(c.host); tp != "" && (pageSite == "" || tp != pageSite) {
						c.tp = ms.intern(tp)
					}
					c.tpSet = true
				}
				if c.tp != "" {
					ms.thirdParties[c.tp] = true
				}
			}
		}
		bids.Add(c.bids, e)

		// Insecure redirects are visible in the HAR: a 301 whose
		// Location target is plain HTTP.
		if !m.InsecureRedirect && e.Response.Status/100 == 3 &&
			strings.HasPrefix(hdr.Location, "http://") {
			m.InsecureRedirect = true
		}

		// Content mix.
		m.ContentBytes[c.cat] += e.Response.BodySize

		// Warm-load accounting.
		m.TransferBytes += e.Transferred()
		if e.FromCache != "" {
			m.CacheHits++
		} else {
			m.NetworkRequests++
			if e.Revalidated {
				m.Revalidations++
			}
		}

		// Cacheability per RFC 7234 semantics over the recorded headers.
		// Entries the browser cache answered — directly or after a 304 —
		// are cacheable by demonstration, whatever their replayed
		// headers say.
		if e.FromCache != "" || e.Revalidated {
			m.CacheableBytes += e.Response.BodySize
		} else if httpsem.Cacheable(httpsem.Response{
			Method:       e.Request.Method,
			Status:       e.Response.Status,
			CacheControl: hdr.CacheControl,
			Pragma:       hdr.Pragma,
			Expires:      hdr.Expires,
			Date:         hdr.Date,
		}) {
			m.CacheableBytes += e.Response.BodySize
		} else {
			m.NonCacheable++
		}

		// Handshakes and CDN delivery, through the helper the
		// timings-only pass shares.
		if t.addEntry(e, c.host, &hdr, az.CDN) {
			m.CDNBytes += e.Response.BodySize
		}
		m.WaitTimes = append(m.WaitTimes, e.Timings.Wait)

		// Mixed content: an HTTPS page pulling any object over plain
		// HTTP (§6.1; passive mixed content in this simulation).
		if pageHTTPS && strings.HasPrefix(e.Request.URL, "http://") {
			m.MixedContent = true
		}

		// Trackers (§6.3).
		if c.blocked {
			m.TrackerRequests++
		}
	}
	m.setTimings(t)
	m.HasHB = bids.Result().Active
	m.UniqueDomains = len(ms.domains)
	m.ThirdParties = make([]string, 0, len(ms.thirdParties))
	for tp := range ms.thirdParties {
		m.ThirdParties = append(m.ThirdParties, tp)
	}
	sort.Strings(m.ThirdParties)
	clear(ms.domains)
	clear(ms.thirdParties)
	return m
}

func schemeOf(u string) string {
	if i := strings.Index(u, "://"); i > 0 {
		return u[:i]
	}
	return ""
}
