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
	var r Result
	var firstBid, lastBid time.Time
	// Allocated on the first bid only; most pages never run an auction.
	var exchanges map[string]bool
	for i := range log.Entries {
		e := &log.Entries[i]
		url := strings.ToLower(e.Request.URL)
		if r.Wrapper == "" {
			for _, m := range wrapperMarkers {
				if strings.Contains(url, m) && strings.HasSuffix(pathOf(url), ".js") {
					r.Wrapper = e.Request.URL
					break
				}
			}
		}
		for _, m := range bidMarkers {
			if strings.Contains(url, m) {
				r.BidRequests++
				if exchanges == nil {
					exchanges = make(map[string]bool, 4)
				}
				exchanges[urlx.Host(url)] = true
				if firstBid.IsZero() || e.StartedAt.Before(firstBid) {
					firstBid = e.StartedAt
				}
				if e.StartedAt.After(lastBid) {
					lastBid = e.StartedAt
				}
				break
			}
		}
	}
	for h := range exchanges {
		r.Exchanges = append(r.Exchanges, h)
	}
	sort.Strings(r.Exchanges)
	if !firstBid.IsZero() {
		r.AuctionSpread = lastBid.Sub(firstBid)
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
