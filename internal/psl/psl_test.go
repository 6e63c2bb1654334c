package psl

import (
	"testing"
	"testing/quick"
)

func TestPublicSuffix(t *testing.T) {
	l := Default()
	cases := []struct{ host, want string }{
		{"example.com", "com"},
		{"www.example.com", "com"},
		{"bbc.co.uk", "co.uk"},
		{"news.bbc.co.uk", "co.uk"},
		{"foo.bar.ck", "bar.ck"}, // wildcard *.ck
		{"weird.tldthatisnotlisted", "tldthatisnotlisted"},
		{"com", "com"},
		{"Example.COM.", "com"},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.host); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestETLDPlusOne(t *testing.T) {
	l := Default()
	cases := []struct{ host, want string }{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.co.uk", "example.co.uk"},
		{"co.uk", ""}, // bare public suffix
		{"com", ""},   // bare public suffix
		{"", ""},      // empty
		{"x.y.bar.ck", "y.bar.ck"},
	}
	for _, c := range cases {
		if got := l.ETLDPlusOne(c.host); got != c.want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestThirdParty(t *testing.T) {
	l := Default()
	cases := []struct {
		page, res string
		third     bool
	}{
		{"www.guardian.com", "images.guardian.com", false},
		{"www.guardian.com", "cdn.akamai.com", true},
		{"bbc.co.uk", "tesco.co.uk", true}, // PSL-aware: co.uk is a suffix
		{"www.bbc.co.uk", "news.bbc.co.uk", false},
		{"site.com", "site.org", true},
	}
	for _, c := range cases {
		if got := !l.SameSite(c.page, c.res); got != c.third {
			t.Errorf("!SameSite(%q, %q) = %v, want %v", c.page, c.res, got, c.third)
		}
	}
}

func TestSameSiteSymmetric(t *testing.T) {
	l := Default()
	hosts := []string{"a.example.com", "b.example.com", "example.org", "x.co.uk", "y.x.co.uk"}
	for _, a := range hosts {
		for _, b := range hosts {
			if l.SameSite(a, b) != l.SameSite(b, a) {
				t.Errorf("SameSite(%q,%q) not symmetric", a, b)
			}
		}
	}
}

func TestETLDPlusOneIsSuffixProperty(t *testing.T) {
	l := Default()
	// For any host, ETLD+1 (when non-empty) must be a dot-suffix of the
	// host and contain exactly one more label than the public suffix.
	f := func(a, b uint8) bool {
		labels := []string{"alpha", "beta", "gamma", "delta"}
		host := labels[a%4] + "." + labels[b%4] + ".example.co.uk"
		e := l.ETLDPlusOne(host)
		if e != "example.co.uk" {
			return false
		}
		return len(host) > len(e) && host[len(host)-len(e):] == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCustomList(t *testing.T) {
	l := New([]string{"internal", "*.dyn.internal", "// comment", ""})
	if got := l.PublicSuffix("svc.internal"); got != "internal" {
		t.Errorf("custom suffix = %q", got)
	}
	if got := l.PublicSuffix("a.b.dyn.internal"); got != "b.dyn.internal" {
		t.Errorf("wildcard suffix = %q", got)
	}
	if got := l.ETLDPlusOne("a.b.dyn.internal"); got != "a.b.dyn.internal" {
		t.Errorf("wildcard etld+1 = %q", got)
	}
}
