// Package psl implements a small public-suffix list and the eTLD+1
// ("second-level domain" in the paper's terminology) logic used to decide
// whether a resource is third-party relative to the page that loads it.
//
// The paper (§6.2) takes public suffixes into account so that, e.g.,
// tesco.co.uk is third-party for bbc.co.uk even though both end in "co.uk".
// The embedded list covers the suffixes produced by the synthetic web
// generator plus the common real-world ones exercised in tests.
package psl

import (
	"strings"
	"sync"
)

// defaultSuffixes is the embedded public-suffix set. Entries use the
// publicsuffix.org format: plain rules and wildcard rules ("*.ck").
var defaultSuffixes = []string{
	"com", "org", "net", "edu", "gov", "mil", "int",
	"io", "co", "ai", "dev", "app", "info", "biz", "tv", "me", "news",
	"shop", "store", "blog", "site", "online", "cloud", "xyz",
	"us", "uk", "de", "fr", "jp", "cn", "ru", "in", "br", "au", "ca",
	"nl", "it", "es", "se", "no", "ch", "kr", "pl", "tr", "mx", "id",
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
	"com.au", "net.au", "org.au", "edu.au",
	"co.jp", "or.jp", "ne.jp", "ac.jp", "go.jp",
	"com.cn", "net.cn", "org.cn", "gov.cn",
	"com.br", "net.br", "org.br",
	"co.in", "net.in", "org.in", "ac.in",
	"co.kr", "or.kr", "com.mx", "com.tr", "com.ru",
	"co.id", "or.id", "web.id",
	"*.ck",
}

// List is a compiled public-suffix list. The zero value is empty; use
// Default or New.
type List struct {
	exact    map[string]bool
	wildcard map[string]bool // parent of "*.x" rules
}

// New compiles a list from suffix rules in publicsuffix.org format
// (lowercase, no leading dots; "*." prefix for wildcard rules).
func New(rules []string) *List {
	l := &List{exact: make(map[string]bool), wildcard: make(map[string]bool)}
	for _, r := range rules {
		r = strings.ToLower(strings.TrimSpace(r))
		if r == "" || strings.HasPrefix(r, "//") {
			continue
		}
		if rest, ok := strings.CutPrefix(r, "*."); ok {
			l.wildcard[rest] = true
			continue
		}
		l.exact[r] = true
	}
	return l
}

var (
	defaultOnce sync.Once
	defaultList *List
)

// Default returns the embedded list shared by the whole program.
func Default() *List {
	defaultOnce.Do(func() { defaultList = New(defaultSuffixes) })
	return defaultList
}

// normalizeHost lowercases host and strips a trailing dot and any port.
func normalizeHost(host string) string {
	host = strings.ToLower(host)
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host, "]") {
		// Keep it simple: hosts here are names, not IPv6 literals.
		if i > 0 && strings.IndexByte(host[i+1:], '.') < 0 {
			host = host[:i]
		}
	}
	return strings.TrimSuffix(host, ".")
}

// PublicSuffix returns the public suffix of host. If no rule matches, the
// last label is the suffix (the implicit "*" rule).
func (l *List) PublicSuffix(host string) string {
	host = normalizeHost(host)
	if host == "" {
		return ""
	}
	// Try longest match first: each candidate is host from one label
	// boundary on, so every result is a substring of host.
	for candidate := host; ; {
		if l.exact[candidate] {
			return candidate
		}
		i := strings.IndexByte(candidate, '.')
		if i < 0 {
			return candidate // the last label
		}
		// A wildcard rule "*.x" matches "y.x".
		if l.wildcard[candidate[i+1:]] {
			return candidate
		}
		candidate = candidate[i+1:]
	}
}

// ETLDPlusOne returns the registrable domain (eTLD+1) for host, or "" if
// host is itself a public suffix or empty.
func (l *List) ETLDPlusOne(host string) string {
	host = normalizeHost(host)
	if host == "" {
		return ""
	}
	suffix := l.PublicSuffix(host)
	if host == suffix {
		return ""
	}
	// host must be rest + "." + suffix; the answer is the last label of
	// rest with the suffix, which is again a substring of host.
	cut := len(host) - len(suffix) - 1
	if cut < 0 || host[cut] != '.' || host[cut+1:] != suffix {
		return "" // suffix was not a proper suffix; defensive
	}
	return host[strings.LastIndexByte(host[:cut], '.')+1:]
}

// SameSite reports whether two hosts share a registrable domain. Hosts
// that are bare public suffixes are never same-site with anything.
func (l *List) SameSite(a, b string) bool {
	ea, eb := l.ETLDPlusOne(a), l.ETLDPlusOne(b)
	return ea != "" && ea == eb
}
