package urlx_test

import (
	"net/url"
	"strings"
	"testing"

	"repro/internal/urlx"
	"repro/internal/webgen"
)

// oracleHost is net/url's reading of raw's host, the url.Parse version
// Host replaced. ok is false unless raw parses as an absolute http(s)
// URL with a non-empty host; FuzzHost holds Host to it on those inputs.
func oracleHost(raw string) (host string, ok bool) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", false
	}
	return strings.ToLower(u.Hostname()), true
}

// hostCases cover each part Host must strip or decode: a query or
// fragment right after the host, ports, userinfo, upper case and IPv6
// literals with zones.
var hostCases = []struct{ url, host string }{
	{"https://Tracker.example.com?x=1", "tracker.example.com"},
	{"https://ads.example.net#f", "ads.example.net"},
	{"https://cdn.example.org:8443/a.js", "cdn.example.org"},
	{"https://user@ads.example.net/x", "ads.example.net"},
	{"https://user:pw@WWW.Example.com:443/?q=a@b", "www.example.com"},
	{"http://[::1]:8080/x", "::1"},
	{"http://[fe80::1%25en0]/", "fe80::1%en0"},
	{"https://www.example.com/a?b=c://d#e", "www.example.com"},
	{"https://example.com:/", "example.com"},
	{"HTTPS://EXAMPLE.COM", "example.com"},
}

func TestHostMatchesOracle(t *testing.T) {
	for _, c := range hostCases {
		if got := urlx.Host(c.url); got != c.host {
			t.Errorf("Host(%q) = %q, want %q", c.url, got, c.host)
		}
		if want, ok := oracleHost(c.url); !ok || want != c.host {
			t.Errorf("oracle(%q) = %q, %v; want %q", c.url, want, ok, c.host)
		}
	}
	// Without a scheme, the host is the leading segment.
	if got := urlx.Host("static.example.com/x.css"); got != "static.example.com" {
		t.Errorf("scheme-less Host = %q", got)
	}
}

func TestHostAllocatesNothing(t *testing.T) {
	raw := "https://static.example.com/assets/app.js?v=3"
	if n := testing.AllocsPerRun(100, func() { _ = urlx.Host(raw) }); n != 0 {
		t.Errorf("Host allocated %v times per call on a lowercase URL", n)
	}
}

func FuzzHost(f *testing.F) {
	for _, c := range hostCases {
		f.Add(c.url)
	}
	w := webgen.Generate(webgen.Config{Seed: 42, Sites: []webgen.SiteSeed{
		{Domain: "alphanews1.com", Rank: 1},
		{Domain: "megashop2.co.uk", Rank: 120},
	}})
	for _, s := range w.Sites {
		for _, p := range []*webgen.Page{s.Landing(), s.PageAt(1)} {
			m := p.Build()
			f.Add(m.URL)
			for i, o := range m.Objects {
				if i%8 == 0 {
					f.Add(o.URL)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, ok := oracleHost(raw)
		if !ok {
			return
		}
		if got := urlx.Host(raw); got != want {
			t.Fatalf("Host(%q) = %q, url.Parse oracle %q", raw, got, want)
		}
	})
}
