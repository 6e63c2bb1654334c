package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/adblock"
	"repro/internal/browser"
	"repro/internal/cdndetect"
	"repro/internal/har"
	"repro/internal/hb"
	"repro/internal/mimecat"
	"repro/internal/psl"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// fixturePage builds one real page model plus a handcrafted HAR over it,
// so MeasurePage's header-driven analyses can be checked exactly.
func fixtureAnalyzers() Analyzers {
	engine, _ := adblock.Compile([]string{"||evil-tracker.com^", "/pixel?"})
	return Analyzers{
		PSL:     psl.Default(),
		Adblock: engine,
		CDN:     cdndetect.New(nil),
	}
}

func fixtureModel(t *testing.T) *webgen.PageModel {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 99, Size: 300})
	entries := u.Top(1)
	web := webgen.Generate(webgen.Config{Seed: 99, Sites: []webgen.SiteSeed{
		{Domain: entries[0].Domain, Rank: 1},
	}})
	return web.Sites[0].Landing().Build()
}

func handHAR(m *webgen.PageModel) *har.Log {
	nav := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC)
	pageHost := m.RootHost()
	log := &har.Log{Page: har.Page{
		URL:             m.URL,
		NavigationStart: nav,
		Timings: har.PageTimings{
			FirstPaint: 700 * time.Millisecond,
			OnLoad:     2 * time.Second,
			SpeedIndex: time.Second,
		},
	}}
	mk := func(url, mime, cc, server, xcache string, size int64, conn bool, depth int, initiator string) har.Entry {
		headers := []har.Header{
			{Name: "Content-Type", Value: mime},
			{Name: "Server", Value: server},
		}
		if cc != "" {
			headers = append(headers, har.Header{Name: "Cache-Control", Value: cc})
		}
		if xcache != "" {
			headers = append(headers, har.Header{Name: "X-Cache", Value: xcache})
		}
		tm := har.Timings{Send: time.Millisecond, Wait: 40 * time.Millisecond, Receive: 10 * time.Millisecond}
		if conn {
			tm.DNS = 10 * time.Millisecond
			tm.Connect = 20 * time.Millisecond
			tm.SSL = 30 * time.Millisecond
		} else {
			tm.DNS, tm.Connect, tm.SSL = har.NotApplicable, har.NotApplicable, har.NotApplicable
		}
		return har.Entry{
			StartedAt: nav,
			Time:      100 * time.Millisecond,
			Request:   har.Request{Method: "GET", URL: url},
			Response:  har.Response{Status: 200, Headers: headers, MIMEType: mime, BodySize: size},
			Timings:   tm,
			Depth:     depth,
			Initiator: initiator,
		}
	}
	root := "https://" + pageHost + "/"
	log.Entries = []har.Entry{
		mk(root, "text/html", "no-cache", "nginx", "", 50_000, true, 0, ""),
		mk("https://static."+m.Page.Site.Domain+"/app.js", "application/javascript", "public, max-age=86400", "nginx", "", 120_000, true, 1, root),
		mk("https://assets-x.fastcache.net/big.jpg", "image/jpeg", "public, max-age=86400", "fastcache", "HIT", 300_000, true, 1, root),
		mk("https://assets-x.fastcache.net/b2.jpg", "image/jpeg", "public, max-age=86400", "fastcache", "MISS", 100_000, false, 1, root),
		mk("https://evil-tracker.com/pixel?id=1", "image/gif", "no-store", "nginx", "", 200, true, 2, "https://static."+m.Page.Site.Domain+"/app.js"),
		mk("http://img."+m.Page.Site.Domain+"/mixed.png", "image/png", "public, max-age=86400", "nginx", "", 20_000, true, 1, root),
	}
	return log
}

// simLoad is one simulated page load together with the model it loaded.
type simLoad struct {
	name  string
	model *webgen.PageModel
	log   *har.Log
}

// simulatedLoads loads pages of a small seeded study web through the
// study's own browsers: the first sites' landing and internal pages cold
// into a fresh cache and then warm against it (cache hits and 304
// revalidations), plus the first header-bidding landing page and the
// first insecure-redirect page further down the list. It also returns
// the study, whose analyzers the loads are to be measured with.
func simulatedLoads(tb testing.TB) ([]simLoad, *Study) {
	tb.Helper()
	const delay = 30 * time.Minute
	u := toplist.NewUniverse(toplist.Config{Seed: 11, Size: 2000})
	entries := u.Top(300)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 11, Sites: seeds})
	st, err := NewStudy(web, StudyConfig{Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	var loads []simLoad
	// pair loads page cold and then warm, as loadPair does.
	pair := func(i int, page *webgen.Page) {
		sc, err := st.newSiteCtx(i)
		if err != nil {
			tb.Fatal(err)
		}
		sc.b.SetCache(browser.NewCache())
		m := page.Build()
		cold, err := sc.b.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			tb.Fatalf("cold load of %s: %v", m.URL, err)
		}
		sc.clock.Advance(delay)
		warm, err := sc.b.LoadRevisit(m, 0, 0, delay)
		if err != nil {
			tb.Fatalf("warm load of %s: %v", m.URL, err)
		}
		loads = append(loads, simLoad{"cold " + m.URL, m, cold}, simLoad{"warm " + m.URL, m, warm})
	}
	for i := 0; i < 3; i++ {
		site := web.Sites[i]
		for k := 0; k <= 2; k++ {
			pair(i, site.PageAt(k))
		}
	}
	hb, redirect := false, false
	for i, site := range web.Sites {
		if !hb && site.Profile.HBLanding {
			pair(i, site.Landing())
			hb = true
		}
		for k := 1; !redirect && site.Profile.InsecureRedirectProb > 0 && k <= site.PoolSize(); k++ {
			if _, ok := site.PageAt(k).RedirectsToInsecure(); ok {
				pair(i, site.PageAt(k))
				redirect = true
			}
		}
	}
	if !hb || !redirect {
		tb.Fatalf("seeded web lacks a page kind: header bidding %v, insecure redirect %v", hb, redirect)
	}
	return loads, st
}

func TestMeasurePageExact(t *testing.T) {
	model := fixtureModel(t)
	log := handHAR(model)
	m := MeasurePage(log, model, fixtureAnalyzers())

	if m.Objects != 6 {
		t.Errorf("Objects = %d", m.Objects)
	}
	if m.Bytes != 590_200 {
		t.Errorf("Bytes = %d", m.Bytes)
	}
	if m.PLT != 700*time.Millisecond || m.OnLoad != 2*time.Second {
		t.Errorf("timings %v/%v", m.PLT, m.OnLoad)
	}
	// Non-cacheable: root (no-cache) + tracker (no-store) = 2.
	if m.NonCacheable != 2 {
		t.Errorf("NonCacheable = %d", m.NonCacheable)
	}
	if m.CacheableBytes != 590_200-50_000-200 {
		t.Errorf("CacheableBytes = %d", m.CacheableBytes)
	}
	// CDN: the two fastcache objects (host suffix + server header).
	if m.CDNBytes != 400_000 {
		t.Errorf("CDNBytes = %d", m.CDNBytes)
	}
	if m.CDNHits != 1 || m.CDNMisses != 1 {
		t.Errorf("CDN hits/misses = %d/%d", m.CDNHits, m.CDNMisses)
	}
	// Unique hosts: www, static, fastcache, tracker, img = 5.
	if m.UniqueDomains != 5 {
		t.Errorf("UniqueDomains = %d", m.UniqueDomains)
	}
	// Handshakes: 5 entries opened connections.
	if m.Handshakes != 5 {
		t.Errorf("Handshakes = %d", m.Handshakes)
	}
	if m.HandshakeTime != 5*50*time.Millisecond {
		t.Errorf("HandshakeTime = %v", m.HandshakeTime)
	}
	if len(m.WaitTimes) != 6 {
		t.Errorf("WaitTimes = %d", len(m.WaitTimes))
	}
	// Trackers: the pixel (domain rule and path rule both hit once).
	if m.TrackerRequests != 1 {
		t.Errorf("TrackerRequests = %d", m.TrackerRequests)
	}
	// Mixed content: the http:// image on an https page.
	if !m.MixedContent {
		t.Error("MixedContent not detected")
	}
	// Third parties: fastcache.net and evil-tracker.com (img./static.
	// share the site's eTLD+1).
	if len(m.ThirdParties) != 2 {
		t.Errorf("ThirdParties = %v", m.ThirdParties)
	}
	// Content mix.
	if m.ContentBytes[mimecat.CatImage] != 420_200 {
		t.Errorf("image bytes = %d", m.ContentBytes[mimecat.CatImage])
	}
	if m.ContentBytes[mimecat.CatJS] != 120_000 {
		t.Errorf("js bytes = %d", m.ContentBytes[mimecat.CatJS])
	}
	if m.JSFraction() <= 0 || m.ImageFraction() <= 0 || m.HTMLCSSFraction() <= 0 {
		t.Error("fractions should be positive")
	}
	// Depth counts via initiator graph: depths 0,1,1,1,2,1.
	if m.DepthCounts[0] != 1 || m.DepthCounts[1] != 4 || m.DepthCounts[2] != 1 {
		t.Errorf("DepthCounts = %v", m.DepthCounts)
	}
}

func TestSiteResultHelpers(t *testing.T) {
	mk := func(landing bool, objects int, tps ...string) PageMeasurement {
		return PageMeasurement{IsLanding: landing, Objects: objects, ThirdParties: tps,
			Scheme: "https"}
	}
	s := SiteResult{
		Landing: mk(true, 100, "a.com", "b.com"),
		Internal: []PageMeasurement{
			mk(false, 60, "a.com", "c.com"),
			mk(false, 80, "d.com"),
			mk(false, 90, "c.com", "e.com"),
		},
	}
	objs := func(p *PageMeasurement) float64 { return float64(p.Objects) }
	if got := s.InternalMedian(objs); got != 80 {
		t.Errorf("InternalMedian = %v", got)
	}
	if got := s.Delta(objs); got != 20 {
		t.Errorf("Delta = %v", got)
	}
	if got := s.Ratio(objs); got != 1.25 {
		t.Errorf("Ratio = %v", got)
	}
	// Unseen third parties: c, d, e (a is on the landing page).
	if got := s.UnseenThirdParties(); got != 3 {
		t.Errorf("UnseenThirdParties = %d", got)
	}
	s.Internal[1].Scheme = "http"
	if got := s.InsecureInternal(); got != 1 {
		t.Errorf("InsecureInternal = %d", got)
	}
	s.Internal[2].MixedContent = true
	if got := s.MixedInternal(); got != 1 {
		t.Errorf("MixedInternal = %d", got)
	}
}

// FuzzMeasureHAR feeds arbitrary bytes through the HAR decoder and the
// HAR-only analysis: external archives are a trust boundary, and every
// analyzer in the pass (header bidding, redirects, cacheability, CDN,
// third parties, trackers, dependency depth) must survive them. Whatever
// decodes must measure without panicking, with one object, one wait time
// and one cache-or-network classification per entry.
func FuzzMeasureHAR(f *testing.F) {
	loads, st := simulatedLoads(f)
	for _, l := range loads[:2] { // the first page, cold and warm
		var buf bytes.Buffer
		if err := l.log.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	az := st.Analyzers()
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := har.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		m := MeasureHAR(log, az)
		if m.Objects != log.ObjectCount() {
			t.Errorf("Objects = %d, log has %d", m.Objects, log.ObjectCount())
		}
		if m.CacheHits+m.NetworkRequests != len(log.Entries) {
			t.Errorf("CacheHits %d + NetworkRequests %d != %d entries", m.CacheHits, m.NetworkRequests, len(log.Entries))
		}
		if len(m.WaitTimes) != len(log.Entries) {
			t.Errorf("%d wait times for %d entries", len(m.WaitTimes), len(log.Entries))
		}
	})
}

// TestAnalyzersAgreeOnHosts feeds MeasureHAR URLs whose host ends at a
// '?' or '#', or carries a port or userinfo. Every analyzer must key on
// the same lowercase hostname: the page measurement, the adblock engine
// and header-bidding detection.
func TestAnalyzersAgreeOnHosts(t *testing.T) {
	urls := []string{
		"https://Tracker.example.com?x=1",
		"https://ads.example.net#f",
		"https://cdn.example.org:8443/a.js",
		"https://user@ads.example.net/x",
	}
	hosts := []string{"tracker.example.com", "ads.example.net", "cdn.example.org", "ads.example.net"}
	entry := func(u string) har.Entry {
		return har.Entry{
			Request:  har.Request{Method: "GET", URL: u},
			Response: har.Response{Status: 200, MIMEType: "application/javascript"},
		}
	}
	log := &har.Log{Page: har.Page{URL: "https://www.mysite.com/"}}
	log.Entries = append(log.Entries, entry(log.Page.URL))
	for _, u := range urls {
		log.Entries = append(log.Entries, entry(u))
	}
	trackers, _ := adblock.Compile([]string{"||tracker.example.com^", "||ads.example.net^"})
	m := MeasureHAR(log, Analyzers{PSL: psl.Default(), Adblock: trackers, CDN: cdndetect.New(nil)})
	if m.UniqueDomains != 4 {
		t.Errorf("UniqueDomains = %d, want 4", m.UniqueDomains)
	}
	if got, want := strings.Join(m.ThirdParties, ","), "example.com,example.net,example.org"; got != want {
		t.Errorf("ThirdParties = %q, want %q", got, want)
	}
	if m.TrackerRequests != 3 {
		t.Errorf("TrackerRequests = %d, want 3", m.TrackerRequests)
	}

	// adblock: a ||host^ rule per expected host blocks each URL by its
	// own host's rule.
	perHost, _ := adblock.Compile([]string{"||tracker.example.com^", "||ads.example.net^", "||cdn.example.org^"})
	for i, u := range urls {
		rule, ok := perHost.Match(adblock.Request{URL: u, Type: adblock.TypeScript, PageHost: "www.mysite.com"})
		if want := "||" + hosts[i] + "^"; !ok || rule != want {
			t.Errorf("adblock Match(%q) = %q, %v; want %q", u, rule, ok, want)
		}
	}

	// The measure pass hands adblock and cdndetect the host it parsed;
	// each must decide as it does when it parses the URL itself.
	cnames := cdndetect.New(func(host string) []string {
		if host == "cdn.example.org" {
			return []string{"cdn.example.org.swiftlayer-edge.net"}
		}
		return nil
	})
	for i, u := range urls {
		req := adblock.Request{URL: u, Type: adblock.TypeScript, PageHost: "www.mysite.com"}
		wantRule, wantOK := perHost.Match(req)
		req.Host = hosts[i]
		if rule, ok := perHost.Match(req); rule != wantRule || ok != wantOK {
			t.Errorf("adblock Match(%q) with Host = %q, %v; without %q, %v", u, rule, ok, wantRule, wantOK)
		}
		e := entry(u)
		want, wantOK := cnames.Attribute(&e)
		if got, ok := cnames.AttributeHost(hosts[i], &e); got != want || ok != wantOK {
			t.Errorf("cdndetect AttributeHost(%q) = %+v, %v; Attribute %+v, %v", hosts[i], got, ok, want, wantOK)
		}
		if wantOK != (hosts[i] == "cdn.example.org") {
			t.Errorf("cdndetect Attribute(%q) = %+v, %v", u, want, wantOK)
		}
	}

	// hb: the same URLs as bid requests name the same exchange hosts.
	bids := &har.Log{Page: log.Page}
	for _, u := range urls {
		bids.Entries = append(bids.Entries, entry(u+"&bid_request"))
	}
	if got, want := strings.Join(hb.Detect(bids).Exchanges, ","), "ads.example.net,cdn.example.org,tracker.example.com"; got != want {
		t.Errorf("hb exchanges = %q, want %q", got, want)
	}
}
