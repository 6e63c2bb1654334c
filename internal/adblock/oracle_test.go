package adblock

import (
	"strings"
	"testing"

	"repro/internal/urlx"
	"repro/internal/webgen"
)

// oracleMatch is the linear matcher as it stood before Compile split
// patterns at their wildcards: the same rule order and override rules as
// Match, with each pattern split on every request. FuzzAdblockMatch holds
// Match to it.
func oracleMatch(e *Engine, req Request) (string, bool) {
	host := urlx.Host(req.URL)
	var blockedBy *rule
	tryRules := func(rules []*rule) {
		for _, r := range rules {
			if !oracleRuleMatches(r, req, host) {
				continue
			}
			if r.exception {
				blockedBy = nil
				return
			}
			if blockedBy == nil {
				blockedBy = r
			}
		}
	}
	h := host
	for h != "" {
		if rules, ok := e.byDomain[h]; ok {
			tryRules(rules)
		}
		i := strings.IndexByte(h, '.')
		if i < 0 {
			break
		}
		h = h[i+1:]
	}
	tryRules(e.generic)
	if blockedBy == nil {
		return "", false
	}
	return blockedBy.raw, true
}

func oracleRuleMatches(r *rule, req Request, host string) bool {
	if r.opts != nil && !r.opts.allow(req, host) {
		return false
	}
	if r.domainRoot != "" {
		if host != r.domainRoot && !strings.HasSuffix(host, "."+r.domainRoot) {
			return false
		}
		if r.pattern == "" || r.pattern == "^" {
			return true
		}
		idx := strings.Index(req.URL, host)
		if idx < 0 {
			return false
		}
		return oraclePatternMatch(req.URL[idx+len(host):], r.pattern, true, r.endAnch)
	}
	return oraclePatternMatch(req.URL, r.pattern, r.startAnch, r.endAnch)
}

func oraclePatternMatch(text, pattern string, anchoredStart, anchoredEnd bool) bool {
	chunks := strings.Split(pattern, "*")
	pos := 0
	for ci, chunk := range chunks {
		if chunk == "" {
			continue
		}
		if ci == 0 && anchoredStart {
			n, ok := chunkMatchAt(text, 0, chunk)
			if !ok {
				return false
			}
			pos = n
			continue
		}
		found := -1
		for i := pos; i <= len(text); i++ {
			if n, ok := chunkMatchAt(text, i, chunk); ok {
				found = n
				break
			}
		}
		if found < 0 {
			return false
		}
		pos = found
	}
	if anchoredEnd {
		last := chunks[len(chunks)-1]
		if last != "" && pos != len(text) {
			return false
		}
	}
	return true
}

var requestTypes = [...]RequestType{
	TypeScript, TypeImage, TypeStylesheet, TypeSubdocument,
	TypeXHR, TypeMedia, TypeFont, TypeOther,
}

// studyList returns the synthetic Easylist of a small generated web and
// the object URLs of its landing pages, each with its page host.
func studyList() (rules []string, urls [][2]string) {
	web := webgen.Generate(webgen.Config{Seed: 42, Sites: []webgen.SiteSeed{
		{Domain: "news-example.com", Rank: 3},
		{Domain: "shop-example.co.uk", Rank: 40},
		{Domain: "social-example.io", Rank: 900},
	}})
	for _, s := range web.Sites {
		for _, o := range s.Landing().Build().Objects {
			urls = append(urls, [2]string{o.URL, s.Host()})
		}
	}
	return webgen.EasylistFor(web.ThirdParties()), urls
}

// TestExceptionOverriddenByLaterGenericBlock pins the rule order Match
// has always had: an exception among the domain-anchored rules ends that
// scan, but a generic block tried afterwards still blocks.
func TestExceptionOverriddenByLaterGenericBlock(t *testing.T) {
	e := mustCompile(t, "@@||tracker.com^", "/pixel?")
	req := Request{URL: "https://tracker.com/pixel?id=1", Type: TypeImage, PageHost: "www.news.com"}
	gr, gb := e.Match(req)
	if gr != "/pixel?" || !gb {
		t.Errorf("Match = (%q, %v), want (\"/pixel?\", true)", gr, gb)
	}
	if wr, wb := oracleMatch(e, req); wr != gr || wb != gb {
		t.Errorf("oracle = (%q, %v), Match = (%q, %v)", wr, wb, gr, gb)
	}
}

// FuzzAdblockMatch holds Match to the linear oracle for the study's list
// plus one fuzzed rule, over fuzzed requests. The seeds replay every
// landing-page object of a generated web.
func FuzzAdblockMatch(f *testing.F) {
	rules, urls := studyList()
	base, _ := Compile(rules)
	blocked := 0
	for i, u := range urls {
		typ := uint8(i)
		if _, ok := base.Match(Request{URL: u[0], Type: requestTypes[int(typ)%len(requestTypes)], PageHost: u[1]}); ok {
			blocked++
		}
		f.Add(rules[1+i%(len(rules)-1)], u[0], u[1], typ)
	}
	if blocked == 0 || blocked == len(urls) {
		f.Fatalf("study list blocks %d of %d seed requests: the seeds exercise one outcome only", blocked, len(urls))
	}
	f.Add("@@||tracker.com^", "https://tracker.com/pixel?id=1", "www.news.com", uint8(1))
	f.Add("|https://*.cdn.net^*/ads/*.js|$script,~third-party", "https://x.cdn.net/a/ads/b.js", "x.cdn.net", uint8(0))
	f.Add("/banner/*/img^$domain=shop.com|~news.shop.com", "http://example.com/banner/a/b/img/", "shop.com", uint8(7))
	// The scan jumps between offsets that hold a chunk's lead byte in
	// either case: chunks led by an uppercase letter and by ^, a URL in
	// mixed case, and a chunk that matches only at the last byte.
	f.Add("Promo/*", "https://X.example.com/static/pROMO/Banner.PNG", "www.example.com", uint8(1))
	f.Add("Track*^Beacon^", "https://cdn.example.net/v1/tRACK/x/BEACON/id7", "www.example.com", uint8(5))
	f.Add("^pixel^*^", "https://T.example.net/a/pixel/b", "www.example.com", uint8(1))
	f.Add("Q|", "https://a.example.com/path?x=1q", "www.example.com", uint8(7))
	f.Fuzz(func(t *testing.T, extra, url, pageHost string, typ uint8) {
		e, _ := Compile(append(rules[:len(rules):len(rules)], extra))
		req := Request{URL: url, Type: requestTypes[int(typ)%len(requestTypes)], PageHost: pageHost}
		gr, gb := e.Match(req)
		wr, wb := oracleMatch(e, req)
		if gr != wr || gb != wb {
			t.Fatalf("Match(%+v) with %q = (%q, %v), oracle (%q, %v)", req, extra, gr, gb, wr, wb)
		}
		// A caller that parsed the host already gets the same answer.
		req.Host = urlx.Host(url)
		if hr, hb := e.Match(req); hr != gr || hb != gb {
			t.Fatalf("Match(%+v) with %q = (%q, %v), without Host (%q, %v)", req, extra, hr, hb, gr, gb)
		}
	})
}

// BenchmarkMatchStudy runs one Match pass over the landing-page objects
// of the generated web in studyList, against the study's list.
func BenchmarkMatchStudy(b *testing.B) {
	rules, urls := studyList()
	e, _ := Compile(rules)
	reqs := make([]Request, len(urls))
	for i, u := range urls {
		reqs[i] = Request{URL: u[0], Type: requestTypes[i%len(requestTypes)], PageHost: u[1]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, req := range reqs {
			e.Match(req)
		}
	}
}
