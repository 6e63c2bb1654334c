// Package urlx contains small URL helpers shared by the crawler, browser,
// search engine, and Hispar list builder.
package urlx

import (
	"net/url"
	"strings"
)

// Normalize canonicalizes raw for use as a page identity: lowercases the
// scheme and host, strips default ports, drops fragments, and ensures a
// non-empty path ("/" for the root). It returns the input unchanged (and
// false) when it cannot be parsed as an absolute http(s) URL.
func Normalize(raw string) (string, bool) {
	u, err := url.Parse(raw)
	if err != nil || !u.IsAbs() {
		return raw, false
	}
	scheme := strings.ToLower(u.Scheme)
	if scheme != "http" && scheme != "https" {
		return raw, false
	}
	u.Scheme = scheme
	u.Host = strings.ToLower(u.Host)
	switch {
	case scheme == "http" && strings.HasSuffix(u.Host, ":80"):
		u.Host = strings.TrimSuffix(u.Host, ":80")
	case scheme == "https" && strings.HasSuffix(u.Host, ":443"):
		u.Host = strings.TrimSuffix(u.Host, ":443")
	}
	u.Fragment = ""
	if u.Path == "" {
		u.Path = "/"
	}
	return u.String(), true
}

// Resolve resolves ref against base and normalizes the result. It returns
// false for unparsable or non-http(s) results.
func Resolve(base, ref string) (string, bool) {
	b, err := url.Parse(base)
	if err != nil {
		return "", false
	}
	r, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", false
	}
	return Normalize(b.ResolveReference(r).String())
}

// Host returns the lowercase hostname of raw: the text after the scheme,
// cut at the first '/', '?' or '#', with userinfo, port and IPv6
// brackets removed and percent-escapes decoded. On every absolute
// http(s) URL net/url accepts it agrees with url.Parse's Hostname
// (FuzzHost); unlike url.Parse it allocates nothing when the host is
// already lowercase ASCII. It is the tree's one host parser.
func Host(raw string) string {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	if strings.IndexByte(s, '%') >= 0 {
		if u, err := url.PathUnescape(s); err == nil {
			s = u
		}
	}
	// A port follows the last colon unless that colon sits inside an
	// IPv6 literal's brackets.
	if i := strings.LastIndexByte(s, ':'); i >= 0 && strings.IndexByte(s[i:], ']') < 0 {
		s = s[:i]
	}
	if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
		s = s[1 : len(s)-1]
	}
	return strings.ToLower(s)
}

// IsLandingPage reports whether raw is a landing page: the root document
// ("/", possibly with an empty query) of its host.
func IsLandingPage(raw string) bool {
	u, err := url.Parse(raw)
	if err != nil {
		return false
	}
	return (u.Path == "/" || u.Path == "") && u.RawQuery == ""
}

// WithScheme returns raw with its scheme replaced.
func WithScheme(raw, scheme string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	u.Scheme = scheme
	return u.String()
}
