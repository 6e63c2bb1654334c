package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/adblock"
	"repro/internal/browser"
	"repro/internal/cdndetect"
	"repro/internal/detrand"
	"repro/internal/har"
	"repro/internal/hb"
	"repro/internal/mimecat"
	"repro/internal/psl"
	"repro/internal/simnet"
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

func fixtureModel(tb testing.TB) *webgen.PageModel {
	tb.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 99, Size: 300})
	entries := u.Top(1)
	web := webgen.Generate(webgen.Config{Seed: 99, Sites: []webgen.SiteSeed{
		{Domain: entries[0].Domain, Rank: 1},
	}})
	return web.Sites[0].Landing().Build()
}

func handHAR(m *webgen.PageModel) *har.Log {
	nav := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC)
	pageHost := m.Objects[0].Host
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
		sc, err := st.newSiteCtx(i, &worker{})
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
	if got := contentTotal(&m); got != m.Bytes {
		t.Errorf("content mix sums to %d bytes, page has %d", got, m.Bytes)
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
// and one cache-or-network classification per entry, and a measurer
// primed with the log or a perturbed copy must measure it as a fresh one.
func FuzzMeasureHAR(f *testing.F) {
	loads, st := simulatedLoads(f)
	for _, l := range loads[:2] { // the first page, cold and warm
		var buf bytes.Buffer
		if err := l.log.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Duplicate headers: the first of each name wins, whatever its case
	// or value, and an empty first value hides a later one.
	dup := handHAR(fixtureModel(f))
	e := &dup.Entries[2]
	e.Response.Headers = append([]har.Header{
		{Name: "x-cache", Value: ""},
		{Name: "CACHE-CONTROL", Value: "no-store"},
		{Name: "Via", Value: "1.1 EdgeNova"},
		{Name: "via", Value: "1.1 cloudmesh"},
	}, e.Response.Headers...)
	var buf bytes.Buffer
	if err := dup.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	az := st.Analyzers()
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := har.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		m := MeasureHAR(log, az)
		// A measurer primed with a perturbed copy of the log, or with
		// the log itself, must measure the log exactly as a fresh one
		// does.
		var ms measurer
		for _, prime := range []*har.Log{perturbLog(log), log} {
			ms.measureHAR(prime, az)
			if got := ms.measureHAR(log, az); !reflect.DeepEqual(got, m) {
				t.Fatalf("measurer primed with %d entries gives\n%+v\nfresh MeasureHAR gives\n%+v", len(prime.Entries), got, m)
			}
			if got, want := ms.timings(log, az), m.timings(); got != want {
				t.Fatalf("primed timings pass %+v, MeasureHAR %+v", got, want)
			}
		}
		if m.Objects != log.ObjectCount() {
			t.Errorf("Objects = %d, log has %d", m.Objects, log.ObjectCount())
		}
		if m.CacheHits+m.NetworkRequests != len(log.Entries) {
			t.Errorf("CacheHits %d + NetworkRequests %d != %d entries", m.CacheHits, m.NetworkRequests, len(log.Entries))
		}
		if len(m.WaitTimes) != len(log.Entries) {
			t.Errorf("%d wait times for %d entries", len(m.WaitTimes), len(log.Entries))
		}
		if got := contentTotal(&m); got != m.Bytes {
			t.Errorf("content mix sums to %d bytes, page has %d", got, m.Bytes)
		}
	})
}

// contentTotal sums a measurement's content mix, which must come to its
// Bytes: every entry's body lands in exactly one category.
func contentTotal(m *PageMeasurement) int64 {
	var n int64
	for _, b := range m.ContentBytes {
		n += b
	}
	return n
}

// perturbLog returns a copy of log, at the same page and positions,
// that a measurer primed with it must not reuse blindly: every third
// entry's MIME type swapped into another category and every fourth
// entry's request sent to another host.
func perturbLog(log *har.Log) *har.Log {
	cp := *log
	cp.Entries = append([]har.Entry(nil), log.Entries...)
	for i := range cp.Entries {
		e := &cp.Entries[i]
		if i%3 == 0 {
			if mimecat.Of(e.Response.MIMEType) == mimecat.CatImage {
				e.Response.MIMEType = "text/css"
			} else {
				e.Response.MIMEType = "image/png"
			}
		}
		if i%4 == 1 {
			e.Request.URL = "https://perturbed.example/" + strconv.Itoa(i) + ".js"
		}
	}
	return &cp
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

	// The measure pass hands adblock the host it parsed; adblock must
	// decide as it does when it parses the URL itself.
	for i, u := range urls {
		req := adblock.Request{URL: u, Type: adblock.TypeScript, PageHost: "www.mysite.com"}
		wantRule, wantOK := perHost.Match(req)
		req.Host = hosts[i]
		if rule, ok := perHost.Match(req); rule != wantRule || ok != wantOK {
			t.Errorf("adblock Match(%q) with Host = %q, %v; without %q, %v", u, rule, ok, wantRule, wantOK)
		}
	}

	// cdndetect takes only the parsed host: a CNAME chain keyed on the
	// bare hostname must attribute exactly the cdn.example.org entry,
	// whose URL carries a port.
	cnames := cdndetect.New(func(host string) []string {
		if host == "cdn.example.org" {
			return []string{"cdn.example.org.swiftlayer-edge.net"}
		}
		return nil
	})
	for i := range log.Entries {
		log.Entries[i].Response.BodySize = int64(1) << i
	}
	if got := MeasureHAR(log, Analyzers{CDN: cnames}).CDNBytes; got != 1<<3 {
		t.Errorf("CDNBytes = %b, want only entry 3 (%b)", got, 1<<3)
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

// TestRequestTypeOfNormalisesMIME checks the adblock request type of
// mixed-case and parameterised MIME types: a stylesheet is a stylesheet
// whatever the case of its Content-Type.
func TestRequestTypeOfNormalisesMIME(t *testing.T) {
	cases := []struct {
		mime string
		want adblock.RequestType
	}{
		{"text/css", adblock.TypeStylesheet},
		{"Text/CSS; charset=utf-8", adblock.TypeStylesheet},
		{" TEXT/CSS ", adblock.TypeStylesheet},
		{"text/css;charset=UTF-8", adblock.TypeStylesheet},
		{"text/html", adblock.TypeSubdocument},
		{"Text/HTML; charset=css", adblock.TypeSubdocument},
		{"application/XHTML+xml", adblock.TypeSubdocument},
		{"Application/JavaScript; charset=utf-8", adblock.TypeScript},
		{"IMAGE/PNG", adblock.TypeImage},
		{"Application/LD+JSON", adblock.TypeXHR},
		{"Video/MP4", adblock.TypeMedia},
		{"audio/mpeg; codecs=mp3", adblock.TypeMedia},
		{"Font/WOFF2", adblock.TypeFont},
		{"text/plain", adblock.TypeOther},
		{"", adblock.TypeOther},
	}
	for _, c := range cases {
		if got := requestTypeOf(mimecat.Of(c.mime), c.mime); got != c.want {
			t.Errorf("requestTypeOf(%q) = %v, want %v", c.mime, got, c.want)
		}
	}
	// The view carries the same type: a $stylesheet rule blocks an
	// uppercase-typed stylesheet.
	rules, _ := adblock.Compile([]string{"/theme.$stylesheet"})
	log := &har.Log{Page: har.Page{URL: "https://www.mysite.com/"}}
	log.Entries = []har.Entry{{
		Request:  har.Request{Method: "GET", URL: "https://static.other.com/theme.css"},
		Response: har.Response{Status: 200, MIMEType: "Text/CSS; charset=utf-8"},
	}}
	if got := MeasureHAR(log, Analyzers{Adblock: rules}).TrackerRequests; got != 1 {
		t.Errorf("TrackerRequests = %d, want the stylesheet blocked", got)
	}
}

// TestLandingTimingsMatchMeasurePage holds the timings-only pass of the
// landing re-fetches to the full pass: for cold, faulted and
// warm-revisit loads over several seeds, the timings pass of a fresh
// measurer and of one primed with the page's earlier loads must equal
// the seven timing fields MeasurePage fills from the same log.
func TestLandingTimingsMatchMeasurePage(t *testing.T) {
	const delay = 30 * time.Minute
	var cold, faulted, warm, cached, cdnHits int
	for seed := int64(1); seed <= 4; seed++ {
		u := toplist.NewUniverse(toplist.Config{Seed: seed, Size: 400})
		entries := u.Top(6)
		seeds := make([]webgen.SiteSeed, len(entries))
		for i, e := range entries {
			seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
		}
		web := webgen.Generate(webgen.Config{Seed: seed, Sites: seeds})
		for _, faults := range []bool{false, true} {
			cfg := StudyConfig{Seed: seed}
			if faults {
				cfg.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.02, Truncate: 0.02, Loss: 0.2}}
				cfg.DNSFailProb = 0.05
			}
			st, err := NewStudy(web, cfg)
			if err != nil {
				t.Fatal(err)
			}
			az := st.Analyzers()
			// primed measures every log after its timings pass, so each
			// timings pass but a page's first runs on the classes of the
			// page's previous load.
			var primed measurer
			check := func(kind string, m *webgen.PageModel, log *har.Log) {
				full := MeasurePage(log, m, az)
				want := full.timings()
				var fresh measurer
				if got := fresh.timings(log, az); got != want {
					t.Errorf("seed %d %s %s: timings pass %+v, MeasurePage %+v", seed, kind, m.URL, got, want)
				}
				if got := primed.timings(log, az); got != want {
					t.Errorf("seed %d %s %s: primed timings pass %+v, MeasurePage %+v", seed, kind, m.URL, got, want)
				}
				if got := primed.measurePage(log, m, az, keepLists); !reflect.DeepEqual(got, full) {
					t.Errorf("seed %d %s %s: primed measurement differs from MeasurePage", seed, kind, m.URL)
				}
				if want.CDNHits > 0 {
					cdnHits++
				}
			}
			for i, site := range web.Sites {
				sc, err := st.newSiteCtx(i, &worker{})
				if err != nil {
					t.Fatal(err)
				}
				sc.b.SetCache(browser.NewCache())
				for k, page := range []*webgen.Page{site.Landing(), site.PageAt(1)} {
					m := page.Build()
					// Re-fetches of the landing page, as the study makes
					// them; a faulted load that fails is skipped.
					for f := 0; f < 3; f++ {
						log, err := sc.b.LoadRevisit(m, f, 0, 0)
						if err != nil {
							continue
						}
						if faults {
							faulted++
						} else {
							cold++
						}
						check("cold", m, log)
						if k > 0 {
							break
						}
					}
					sc.clock.Advance(delay)
					if log, err := sc.b.LoadRevisit(m, 0, 0, delay); err == nil {
						warm++
						check("warm", m, log)
						for _, e := range log.Entries {
							if e.FromCache != "" || e.Revalidated {
								cached++
							}
						}
					}
				}
			}
		}
	}
	if cold == 0 || faulted == 0 || warm == 0 || cached == 0 || cdnHits == 0 {
		t.Errorf("loads miss a case: %d cold, %d faulted, %d warm (%d cache-served entries), %d with CDN hits",
			cold, faulted, warm, cached, cdnHits)
	}
}

// TestMeasurerReuseMatchesFresh drives one measurer, as a study worker
// does, through seeded random sequences of repeated landing fetches,
// warm pairs, faulted (compacted) logs, perturbed copies, page switches
// and pair legs measured without lists between full measurements. Every
// measurement and every timings pass must equal what a fresh
// MeasurePage makes of the same log, less the lists where the pass
// drops them: reusing a class or an interned name may save work, never
// change a field. The one measurer serves every sequence, as a worker's
// serves every site it measures, so names it interned on one site's
// pages come back on another's.
func TestMeasurerReuseMatchesFresh(t *testing.T) {
	const delay = 30 * time.Minute
	u := toplist.NewUniverse(toplist.Config{Seed: 13, Size: 400})
	entries := u.Top(8)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 13, Sites: seeds})
	clean, err := NewStudy(web, StudyConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := NewStudy(web, StudyConfig{Seed: 13, DNSFailProb: 0.05,
		Faults: simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.03, Truncate: 0.03, Loss: 0.2}}})
	if err != nil {
		t.Fatal(err)
	}
	az := clean.Analyzers()
	var reused, compacted, perturbed, warm, interleaved, crossSite int
	var ms measurer
	// firstSite is the site on whose page each name was first kept.
	firstSite := make(map[string]int)
	for seed := int64(1); seed <= 6; seed++ {
		rng := detrand.New(seed)
		site := 0
		page := web.Sites[0].Landing().Build()
		var last *har.Log
		check := func(step int, kind string, log *har.Log) {
			t.Helper()
			want := MeasurePage(log, page, az)
			if ms.pageURL == log.Page.URL && len(ms.classes) > 0 {
				reused++
			}
			if got := ms.timings(log, az); got != want.timings() {
				t.Fatalf("seed %d step %d (%s of %s): timings pass %+v, MeasurePage %+v", seed, step, kind, page.URL, got, want.timings())
			}
			got := ms.measurePage(log, page, az, keepLists)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s of %s): measurer gives\n%+v\nMeasurePage gives\n%+v", seed, step, kind, page.URL, got, want)
			}
			for _, tp := range got.ThirdParties {
				if first, ok := firstSite[tp]; !ok {
					firstSite[tp] = site
				} else if first != site {
					crossSite++
				}
			}
			last = log
		}
		// legs measures log as a warm pair's leg, then in full, then as
		// a leg again: a pass that drops the lists must leave nothing a
		// later full pass reads as derived.
		legs := func(step int, kind string, log *har.Log) {
			t.Helper()
			full := MeasurePage(log, page, az)
			scalars := full
			scalars.DepthCounts, scalars.WaitTimes, scalars.ThirdParties = nil, nil, nil
			for k, l := range []lists{dropLists, keepLists, dropLists} {
				want := scalars
				if l == keepLists {
					want = full
				}
				if got := ms.measurePage(log, page, az, l); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s of %s, pass %d, lists %v): measurer gives\n%+v\nwant\n%+v", seed, step, kind, page.URL, k, l, got, want)
				}
			}
			last = log
		}
		switchPage := func() {
			site = rng.Intn(len(web.Sites))
			s := web.Sites[site]
			page = s.PageAt(rng.Intn(min(s.PoolSize(), 4) + 1)).Build()
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(6); {
			case op == 0 || last == nil: // switch to another page
				switchPage()
				fallthrough
			case op == 1: // a landing-style re-fetch
				sc, err := clean.newSiteCtx(site, &worker{})
				if err != nil {
					t.Fatal(err)
				}
				log, err := sc.b.LoadRevisit(page, rng.Intn(10), 0, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				check(step, "fetch", log)
			case op == 2 || op == 4: // a warm pair; at 4 another page's, its legs measured around full measurements
				measure := check
				if op == 4 {
					switchPage()
					measure = legs
				}
				sc, err := clean.newSiteCtx(site, &worker{})
				if err != nil {
					t.Fatal(err)
				}
				sc.b.SetCache(browser.NewCache())
				cold, err := sc.b.LoadRevisit(page, 0, 0, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				measure(step, "cold leg", cold)
				sc.clock.Advance(delay)
				w, err := sc.b.LoadRevisit(page, 0, 0, delay)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				measure(step, "warm leg", w)
				if op == 4 {
					interleaved++
				} else {
					warm++
				}
			case op == 3: // a faulted load, compacted or failed
				sc, err := faulty.newSiteCtx(site, &worker{})
				if err != nil {
					t.Fatal(err)
				}
				log, _ := sc.b.LoadRevisit(page, rng.Intn(10), rng.Intn(3), 0)
				if len(log.Entries) < len(page.Objects) {
					compacted++
				}
				check(step, "faulted load", log)
			default: // a perturbed copy of the last log
				cp := *last
				cp.Entries = append([]har.Entry(nil), last.Entries...)
				for i := range cp.Entries {
					switch rng.Intn(6) {
					case 0:
						cp.Entries[i].Response.MIMEType = strings.ToUpper(cp.Entries[i].Response.MIMEType)
					case 1:
						cp.Entries[i].Request.URL += "?v=" + strconv.Itoa(step)
					case 2:
						j := rng.Intn(len(cp.Entries))
						cp.Entries[i], cp.Entries[j] = cp.Entries[j], cp.Entries[i]
					}
				}
				if k := rng.Intn(len(cp.Entries)); k > 0 {
					cp.Entries = append(cp.Entries[:k], cp.Entries[k+1:]...)
				}
				if rng.Intn(2) == 0 {
					// The same entries on another site's page: first
					// and third parties trade places.
					cp.Page.URL = web.Sites[(site+1+rng.Intn(len(web.Sites)-1))%len(web.Sites)].Landing().URL()
				}
				perturbed++
				check(step, "perturbed copy", &cp)
			}
		}
	}
	if reused == 0 || compacted == 0 || perturbed == 0 || warm == 0 || interleaved == 0 || crossSite == 0 {
		t.Fatalf("sequences miss a case: %d measurements on stored classes, %d compacted logs, %d perturbed copies, %d warm pairs, %d pairs measured without lists, %d names kept again on another site",
			reused, compacted, perturbed, warm, interleaved, crossSite)
	}
}

// TestKeptNamesOwnTheirBytes holds the third-party names of kept
// measurements to owning their bytes. One measurer measures the pages of
// several sites: no name may lie inside any string of the log it came
// from (a kept name must not pin a log, or the page-builder storage its
// URLs are cut from), and equal names on different pages share one
// copy. Past maxInternedNames the table stops growing, and the names it
// no longer takes are still right and still owned.
func TestKeptNamesOwnTheirBytes(t *testing.T) {
	loads, st := simulatedLoads(t)
	az := st.Analyzers()
	var ms measurer
	copyOf := make(map[string]*byte)
	shared := 0
	for _, l := range loads {
		m := ms.measurePage(l.log, l.model, az, keepLists)
		checkNamesOwned(t, l.name, &m, l.log)
		for _, tp := range m.ThirdParties {
			p, ok := copyOf[tp]
			switch {
			case !ok:
				copyOf[tp] = unsafe.StringData(tp)
			case p != unsafe.StringData(tp):
				t.Errorf("%s: third party %q has a copy of its own, not the one an earlier page kept", l.name, tp)
			default:
				shared++
			}
		}
	}
	if shared == 0 || len(copyOf) == 0 {
		t.Fatalf("%d names, none kept by two pages: the loads test no sharing", len(copyOf))
	}

	// Synthetic pages, each contacting perPage third parties no earlier
	// page did, drive the table past its bound.
	const perPage = 200
	for first := 0; first < maxInternedNames+2*perPage; first += perPage {
		log := &har.Log{Page: har.Page{URL: "https://www.example.com/"}}
		var want []string
		for k := first; k < first+perPage; k++ {
			name := fmt.Sprintf("tp%05d.com", k)
			want = append(want, name)
			log.Entries = append(log.Entries, har.Entry{
				Request:  har.Request{Method: "GET", URL: "https://cdn." + name + "/lib.js"},
				Response: har.Response{Status: 200, MIMEType: "application/javascript", BodySize: 100},
			})
		}
		m := ms.measureHAR(log, az)
		if !slices.Equal(m.ThirdParties, want) {
			t.Fatalf("page of names %d..%d: third parties %v, want %v", first, first+perPage-1, m.ThirdParties, want)
		}
		checkNamesOwned(t, log.Page.URL, &m, log)
		if len(ms.names) > maxInternedNames {
			t.Fatalf("the table holds %d names, over its bound of %d", len(ms.names), maxInternedNames)
		}
	}
	if len(ms.names) != maxInternedNames {
		t.Errorf("the table holds %d names after more than %d distinct ones, want it full", len(ms.names), maxInternedNames)
	}
}

// checkNamesOwned fails unless every third-party name of m lies outside
// every string log holds.
func checkNamesOwned(t *testing.T, page string, m *PageMeasurement, log *har.Log) {
	t.Helper()
	strs := stringsOf(reflect.ValueOf(log).Elem(), nil)
	for _, tp := range m.ThirdParties {
		p := uintptr(unsafe.Pointer(unsafe.StringData(tp)))
		for _, s := range strs {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if lo <= p && p < lo+uintptr(len(s)) {
				t.Errorf("%s: third party %q lies inside the log string %q", page, tp, s)
			}
		}
	}
}

// stringsOf appends every non-empty string v holds, through structs,
// slices and pointers, to out.
func stringsOf(v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			out = append(out, v.String())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = stringsOf(v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = stringsOf(v.Index(i), out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = stringsOf(v.Elem(), out)
		}
	}
	return out
}
