package urlx

import "testing"

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"HTTP://Example.COM", "http://example.com/", true},
		{"https://example.com:443/a", "https://example.com/a", true},
		{"http://example.com:80/a?q=1#frag", "http://example.com/a?q=1", true},
		{"http://example.com:8080/", "http://example.com:8080/", true},
		{"ftp://example.com/", "ftp://example.com/", false},
		{"/relative", "/relative", false},
		{"://bad", "://bad", false},
	}
	for _, c := range cases {
		got, ok := Normalize(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Normalize(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestResolve(t *testing.T) {
	got, ok := Resolve("https://example.com/a/b", "../c")
	if !ok || got != "https://example.com/c" {
		t.Errorf("Resolve = %q, %v", got, ok)
	}
	got, ok = Resolve("https://example.com/a", "//other.com/x")
	if !ok || got != "https://other.com/x" {
		t.Errorf("protocol-relative Resolve = %q, %v", got, ok)
	}
	if _, ok := Resolve("https://example.com/", "javascript:void(0)"); ok {
		t.Error("javascript: URL should not resolve")
	}
}

func TestHostAndScheme(t *testing.T) {
	if Host("https://WWW.Example.com:8443/x") != "www.example.com" {
		t.Error("Host wrong")
	}
	if WithScheme("https://x.com/a", "http") != "http://x.com/a" {
		t.Error("WithScheme wrong")
	}
}

func TestIsLandingPage(t *testing.T) {
	cases := []struct {
		url  string
		want bool
	}{
		{"https://example.com/", true},
		{"https://example.com", true},
		{"https://example.com/article", false},
		{"https://example.com/?utm=1", false},
	}
	for _, c := range cases {
		if got := IsLandingPage(c.url); got != c.want {
			t.Errorf("IsLandingPage(%q) = %v, want %v", c.url, got, c.want)
		}
	}
}
