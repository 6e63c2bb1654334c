package adblock

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustCompile(t *testing.T, lines ...string) *Engine {
	t.Helper()
	e, _ := Compile(lines)
	return e
}

func TestDomainAnchor(t *testing.T) {
	e := mustCompile(t, "||tracker.com^")
	cases := []struct {
		url  string
		want bool
	}{
		{"http://tracker.com/x", true},
		{"https://tracker.com/", true},
		{"https://sub.tracker.com/pixel", true},
		{"https://nottracker.com/x", false},
		{"https://tracker.com.evil.net/x", false},
		{"https://example.com/?ref=tracker.com", false},
	}
	for _, c := range cases {
		if got := e.Blocked(c.url); got != c.want {
			t.Errorf("Blocked(%q) = %v, want %v", c.url, got, c.want)
		}
	}
}

func TestPathPatterns(t *testing.T) {
	e := mustCompile(t, "/ads/*", "/pixel?")
	if !e.Blocked("https://x.com/ads/banner.js") {
		t.Error("path /ads/ not blocked")
	}
	if !e.Blocked("https://x.com/pixel?id=1") {
		t.Error("/pixel? not blocked")
	}
	if e.Blocked("https://x.com/adsxbanner") {
		t.Error("false positive: /ads/ requires separator")
	}
	if e.Blocked("https://x.com/telemetry/collect?v=1") {
		t.Error("telemetry wrongly blocked")
	}
}

func TestSeparatorSemantics(t *testing.T) {
	e := mustCompile(t, "||example.com^ad^")
	if !e.Blocked("http://example.com/ad/") {
		t.Error("separator should match /")
	}
	if e.Blocked("http://example.com/admiral") {
		t.Error("separator must not match a letter")
	}
	// ^ matches end of address.
	e2 := mustCompile(t, "||example.com/ad^")
	if !e2.Blocked("http://example.com/ad") {
		t.Error("^ should match end of address")
	}
}

func TestWildcards(t *testing.T) {
	e := mustCompile(t, "/banner/*/img^")
	if !e.Blocked("http://example.com/banner/foo/img") {
		t.Error("wildcard should match")
	}
	if !e.Blocked("http://example.com/banner/a/b/img/") {
		t.Error("wildcard should match across segments")
	}
	if e.Blocked("http://example.com/banner/img") {
		t.Error("matched without middle segment and separator")
	}
}

func TestAnchors(t *testing.T) {
	e := mustCompile(t, "|https://exact.com/x|")
	if !e.Blocked("https://exact.com/x") {
		t.Error("exact anchor should match")
	}
	if e.Blocked("https://exact.com/xy") {
		t.Error("end anchor violated")
	}
	if e.Blocked("http://pre.https://exact.com/x") {
		t.Error("start anchor violated")
	}
}

func TestExceptions(t *testing.T) {
	e := mustCompile(t, "||ads.com^", "@@||ads.com/allowed^")
	if !e.Blocked("https://ads.com/banner") {
		t.Error("base rule should block")
	}
	if e.Blocked("https://ads.com/allowed/x") {
		t.Error("exception should unblock")
	}
}

func TestOptions(t *testing.T) {
	e := mustCompile(t, "||ads.com^$script,third-party")
	blockedScript, _ := e.Match(Request{URL: "https://ads.com/a.js", Type: TypeScript, PageHost: "example.com"})
	if blockedScript == "" {
		t.Error("third-party script should match")
	}
	if r, ok := e.Match(Request{URL: "https://ads.com/a.png", Type: TypeImage, PageHost: "example.com"}); ok {
		t.Errorf("image matched script-only rule %q", r)
	}
	if _, ok := e.Match(Request{URL: "https://ads.com/a.js", Type: TypeScript, PageHost: "sub.ads.com"}); ok {
		t.Error("first-party request matched third-party rule")
	}
	// domain= option.
	e2 := mustCompile(t, "/promo/*$domain=shop.com")
	if _, ok := e2.Match(Request{URL: "https://x.com/promo/a", Type: TypeOther, PageHost: "shop.com"}); !ok {
		t.Error("domain= should match on shop.com")
	}
	if _, ok := e2.Match(Request{URL: "https://x.com/promo/a", Type: TypeOther, PageHost: "news.com"}); ok {
		t.Error("domain= should not match on news.com")
	}
}

func TestUnsupportedOptionSkipsRule(t *testing.T) {
	e, skipped := Compile([]string{"||x.com^$popup", "||y.com^"})
	if e.Len() != 1 {
		t.Errorf("rules = %d, want 1", e.Len())
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
}

func TestCommentsAndCosmetics(t *testing.T) {
	e, _ := Compile([]string{
		"! comment",
		"[Adblock Plus 2.0]",
		"example.com##.ad-banner",
		"",
		"||real.com^",
	})
	if e.Len() != 1 {
		t.Errorf("rules = %d, want 1 (comments/cosmetics ignored)", e.Len())
	}
}

func TestCaseInsensitivity(t *testing.T) {
	e := mustCompile(t, "/AdServer/*")
	if !e.Blocked("http://x.com/adserver/a") {
		t.Error("pattern matching should be case-insensitive")
	}
}

func TestNeverMatchesEmptyOrUniversal(t *testing.T) {
	e, skipped := Compile([]string{"*", "**", ""})
	if e.Len() != 0 || skipped != 2 {
		t.Errorf("universal rules must be rejected: len=%d skipped=%d", e.Len(), skipped)
	}
}

func TestPatternMatchTermination(t *testing.T) {
	// Pathological inputs must terminate, and agree with the oracle.
	f := func(url, pat string) bool {
		if len(url) > 200 {
			url = url[:200]
		}
		if len(pat) > 50 {
			pat = pat[:50]
		}
		pat = strings.Map(func(r rune) rune {
			if r < 32 || r > 126 {
				return 'a'
			}
			return r
		}, pat)
		got := patternMatch(url, strings.Split(pat, "*"), false, false)
		return got == oraclePatternMatch(url, pat, false, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
