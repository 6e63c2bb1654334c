package hb

import (
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

func entry(url string, at time.Time) har.Entry {
	return har.Entry{
		StartedAt: at,
		Request:   har.Request{Method: "GET", URL: url},
		Response:  har.Response{Status: 200},
	}
}

func TestDetectSynthetic(t *testing.T) {
	nav := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC)
	log := &har.Log{Page: har.Page{URL: "https://x/", NavigationStart: nav}}
	log.Entries = []har.Entry{
		entry("https://x/", nav),
		entry("https://adserve12.com/ads/tag-77.js", nav.Add(100*time.Millisecond)),
		entry("https://bidhub10.net/track?bid=1", nav.Add(200*time.Millisecond)),
		entry("https://dspzone33.io/track?bid=2", nav.Add(230*time.Millisecond)),
	}
	r := Detect(log)
	if !r.Active {
		t.Fatal("HB not detected")
	}
	if r.BidRequests != 2 || len(r.Exchanges) != 2 {
		t.Errorf("bids=%d exchanges=%v", r.BidRequests, r.Exchanges)
	}
	if r.Wrapper == "" {
		t.Error("wrapper not found")
	}
	if r.AuctionSpread != 30*time.Millisecond {
		t.Errorf("spread = %v", r.AuctionSpread)
	}
}

func TestNoFalsePositiveOnPlainAds(t *testing.T) {
	nav := time.Now()
	log := &har.Log{Page: har.Page{URL: "https://x/", NavigationStart: nav}}
	log.Entries = []har.Entry{
		entry("https://x/", nav),
		entry("https://adserve12.com/ads/tag-3.js", nav), // ad script but no auction
		entry("https://adserve12.com/pixel?id=9", nav),
	}
	if Detect(log).Active {
		t.Error("plain ad/tracking page misdetected as HB")
	}
	// Bids without a wrapper (e.g. server-side bidding) do not count as
	// client-side HB.
	log.Entries = []har.Entry{
		entry("https://x/", nav),
		entry("https://bidhub10.net/track?bid=1", nav),
		entry("https://bidhub10.net/track?bid=2", nav),
	}
	if Detect(log).Active {
		t.Error("wrapper-less bids misdetected")
	}
}

// TestAgreesWithGenerator checks the wire-level detector against the
// generator's ground-truth HB flags over simulated loads.
func TestAgreesWithGenerator(t *testing.T) {
	u := toplist.NewUniverse(toplist.Config{Seed: 13, Size: 600})
	entries := u.Top(40)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 13, Sites: seeds})
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{Name: "isp", Seed: 13}, web.Authority(), nil)
	b, err := browser.New(browser.Config{
		Seed:     13,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), 13)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, hbSeen := 0, 0
	for _, s := range web.Sites {
		for _, page := range []*webgen.Page{s.Landing(), s.PageAt(1)} {
			m := page.Build()
			log, err := b.LoadRevisit(m, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := Detect(log).Active
			if got != m.HasHB {
				t.Errorf("%s: detector=%v ground truth=%v", m.URL, got, m.HasHB)
			}
			checked++
			if m.HasHB {
				hbSeen++
			}
		}
	}
	if hbSeen == 0 {
		t.Skip("no HB pages at this seed; agreement vacuous")
	}
	t.Logf("checked %d pages, %d with HB", checked, hbSeen)
}
