// Package hb detects header bidding (§6.3): client-side ad auctions run
// from the page via a wrapper script that fans out bid requests to
// exchanges before any ad server is contacted. The paper used the
// open-source tooling from Aqeel et al. (PAM 2020) to find HB on 17 of
// 200 landing pages — and 12 more sites that run HB *only* on internal
// pages.
//
// Detection here mirrors that tooling's signals: a wrapper-script fetch,
// in-page ad slots, and parallel bid calls observed on the wire.
package hb

import (
	"sort"
	"strings"
	"time"

	"repro/internal/har"
	"repro/internal/urlx"
)

// Result describes header-bidding activity on one page.
type Result struct {
	Active bool
	// Wrapper is the URL of the detected prebid-style wrapper script.
	Wrapper string
	// BidRequests counts auction calls observed on the network.
	BidRequests int
	// Exchanges lists the distinct exchange hosts receiving bids.
	Exchanges []string
	// AuctionSpread is the time between the first and last bid request —
	// HB bids go out in parallel bursts, which is itself a signal.
	AuctionSpread time.Duration
}

// wrapper script name fragments (prebid.js and white-label forks).
var wrapperMarkers = []string{"prebid", "hb-wrapper", "/ads/tag-"}

// bid request path fragments.
var bidMarkers = []string{"track?bid=", "/openrtb2/", "/hbid?", "bid_request"}

// Detect inspects a page-load HAR for header-bidding activity.
func Detect(log *har.Log) Result {
	var d Detector
	for i := range log.Entries {
		e := &log.Entries[i]
		d.Add(Classify(strings.ToLower(e.Request.URL)), e)
	}
	return d.Result()
}

// Signal is what one request URL says about header bidding. It depends
// on the URL alone, so a caller that sees the same URL again may keep it.
type Signal struct {
	// Wrapper marks a wrapper script fetch.
	Wrapper bool
	// Bid marks an auction call, and Exchange is its lowercase host.
	Bid      bool
	Exchange string
}

// Classify reads the Signal of a request URL; lowerURL must be
// strings.ToLower of the URL.
func Classify(lowerURL string) Signal {
	var s Signal
	for _, m := range wrapperMarkers {
		if strings.Contains(lowerURL, m) && strings.HasSuffix(pathOf(lowerURL), ".js") {
			s.Wrapper = true
			break
		}
	}
	for _, m := range bidMarkers {
		if strings.Contains(lowerURL, m) {
			s.Bid = true
			s.Exchange = urlx.Host(lowerURL)
			break
		}
	}
	return s
}

// Detector accumulates header-bidding evidence one request at a time, so
// a caller already walking a page's entries need not walk them again. The
// zero value is ready to use.
type Detector struct {
	r                 Result
	firstBid, lastBid time.Time
	// Allocated on the first bid only; most pages never run an auction.
	exchanges map[string]bool
}

// Add adds one entry, whose request URL has Signal s.
func (d *Detector) Add(s Signal, e *har.Entry) {
	if s.Wrapper && d.r.Wrapper == "" {
		d.r.Wrapper = e.Request.URL
	}
	if !s.Bid {
		return
	}
	d.r.BidRequests++
	if d.exchanges == nil {
		d.exchanges = make(map[string]bool, 4)
	}
	d.exchanges[s.Exchange] = true
	if d.firstBid.IsZero() || e.StartedAt.Before(d.firstBid) {
		d.firstBid = e.StartedAt
	}
	if e.StartedAt.After(d.lastBid) {
		d.lastBid = e.StartedAt
	}
}

// Result returns the verdict over the entries observed so far.
func (d *Detector) Result() Result {
	r := d.r
	for h := range d.exchanges {
		r.Exchanges = append(r.Exchanges, h)
	}
	sort.Strings(r.Exchanges)
	if !d.firstBid.IsZero() {
		r.AuctionSpread = d.lastBid.Sub(d.firstBid)
	}
	// Active HB needs auction traffic plus the machinery that started it.
	r.Active = r.BidRequests >= 2 && r.Wrapper != ""
	return r
}

// pathOf strips the query string without allocating a split slice.
func pathOf(url string) string {
	if q := strings.IndexByte(url, '?'); q >= 0 {
		return url[:q]
	}
	return url
}
