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

	// Content mix (§5.2): bytes per category.
	ContentBytes map[mimecat.Category]int64

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

	// Third parties (§6.2): unique third-party eTLD+1s contacted.
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

// requestTypeOf maps a response MIME to the adblock request type.
func requestTypeOf(mime string) adblock.RequestType {
	switch mimecat.Of(mime) {
	case mimecat.CatJS:
		return adblock.TypeScript
	case mimecat.CatImage:
		return adblock.TypeImage
	case mimecat.CatHTMLCSS:
		if strings.Contains(mime, "css") {
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

// MeasurePage computes a PageMeasurement from a page-load HAR and its
// model. Every network metric comes from the HAR, through the same pass
// as MeasureHAR; the model supplies only what the paper got from the DOM
// (resource hints, ad slots) and site metadata, mirroring the paper's
// pipeline.
func MeasurePage(log *har.Log, model *webgen.PageModel, az Analyzers) PageMeasurement {
	m := measureLog(log, az)
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
	m := measureLog(log, az)
	m.IsLanding = urlx.IsLandingPage(log.Page.URL)
	m.Scheme = schemeOf(log.Page.URL)
	return m
}

// measureLog is the one HAR→metrics pass: it fills every PageMeasurement
// field a HAR decides and leaves the DOM and site fields to its callers.
func measureLog(log *har.Log, az Analyzers) PageMeasurement {
	m := PageMeasurement{
		URL:          log.Page.URL,
		Bytes:        log.TotalBytes(),
		Objects:      log.ObjectCount(),
		PLT:          log.Page.Timings.FirstPaint,
		SpeedIndex:   log.Page.Timings.SpeedIndex,
		OnLoad:       log.Page.Timings.OnLoad,
		ContentBytes: make(map[mimecat.Category]int64),
	}
	// Header bidding is detected from the wire (wrapper script + bid
	// burst), not taken from generator ground truth.
	m.HasHB = hb.Detect(log).Active
	// Dependency structure is derived from HAR initiator records, the
	// paper's §5.4 method; the HAR's _depth extension is only a
	// cross-check (see tests).
	if g, err := depgraph.FromHAR(log); err == nil {
		m.DepthCounts = g.DepthCounts(5)
	} else {
		m.DepthCounts = log.DepthCounts(5)
	}
	pageHost := hostOf(log.Page.URL)
	pageHTTPS := strings.HasPrefix(log.Page.URL, "https://")
	domains := make(map[string]bool)
	thirdParties := make(map[string]bool)

	for i := range log.Entries {
		e := &log.Entries[i]
		host := hostOf(e.Request.URL)
		domains[host] = true

		// Insecure redirects are visible in the HAR: a 301 whose
		// Location target is plain HTTP.
		if !m.InsecureRedirect && e.Response.Status/100 == 3 &&
			strings.HasPrefix(e.Response.HeaderValue("Location"), "http://") {
			m.InsecureRedirect = true
		}

		// Content mix.
		m.ContentBytes[mimecat.Of(e.Response.MIMEType)] += e.Response.BodySize

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
			CacheControl: e.Response.HeaderValue("Cache-Control"),
			Pragma:       e.Response.HeaderValue("Pragma"),
			Expires:      e.Response.HeaderValue("Expires"),
			Date:         e.Response.HeaderValue("Date"),
		}) {
			m.CacheableBytes += e.Response.BodySize
		} else {
			m.NonCacheable++
		}

		// CDN attribution and cache status — network responses only:
		// cache-served entries replay stored X-Cache headers that say
		// nothing about this load.
		if az.CDN != nil && e.FromCache == "" && !e.Revalidated {
			if _, ok := az.CDN.Attribute(e); ok {
				m.CDNBytes += e.Response.BodySize
				switch cdndetect.CacheStatus(e) {
				case 1:
					m.CDNHits++
				case -1:
					m.CDNMisses++
				}
			}
		}

		// Handshakes and wait.
		if e.Timings.NewConnection() {
			m.Handshakes++
			m.HandshakeTime += e.Timings.Handshake()
		}
		m.WaitTimes = append(m.WaitTimes, e.Timings.Wait)

		// Mixed content: an HTTPS page pulling any object over plain
		// HTTP (§6.1; passive mixed content in this simulation).
		if pageHTTPS && strings.HasPrefix(e.Request.URL, "http://") {
			m.MixedContent = true
		}

		// Third parties by eTLD+1 (§6.2).
		if az.PSL != nil && az.PSL.IsThirdParty(pageHost, host) {
			if tp := az.PSL.ETLDPlusOne(host); tp != "" {
				thirdParties[tp] = true
			}
		}

		// Trackers (§6.3).
		if az.Adblock != nil {
			if _, blocked := az.Adblock.Match(adblock.Request{
				URL:      e.Request.URL,
				Type:     requestTypeOf(e.Response.MIMEType),
				PageHost: pageHost,
			}); blocked {
				m.TrackerRequests++
			}
		}
	}
	m.UniqueDomains = len(domains)
	for tp := range thirdParties {
		m.ThirdParties = append(m.ThirdParties, tp)
	}
	sort.Strings(m.ThirdParties)
	return m
}

func hostOf(raw string) string {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}

func schemeOf(u string) string {
	if i := strings.Index(u, "://"); i > 0 {
		return u[:i]
	}
	return ""
}
