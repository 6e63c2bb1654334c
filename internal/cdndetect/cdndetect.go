// Package cdndetect attributes HTTP responses to CDN providers using the
// paper's heuristic toolkit (§5.1): serving-host domain patterns, DNS
// CNAME chains, and response headers (Server, Via, X-Cache). As in the
// paper, the heuristics need not be exhaustive — identifying whether an
// object was delivered by a known CDN suffices.
package cdndetect

import (
	"strings"

	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/har"
)

// Signature is one provider's detection fingerprint.
type Signature struct {
	Provider     string
	HostSuffix   string
	CNAMESuffix  string
	ServerHeader string
}

// Detector matches responses against a signature table.
type Detector struct {
	sigs     []Signature
	resolver *dnssim.Resolver
}

// New builds a detector from the simulated provider roster. resolver, if
// non-nil, enables CNAME-chain attribution for first-party hostnames.
func New(resolver *dnssim.Resolver) *Detector {
	var sigs []Signature
	for _, p := range cdn.Providers() {
		sigs = append(sigs, Signature{
			Provider:     p.Name,
			HostSuffix:   p.HostSuffix,
			CNAMESuffix:  p.CNAMESuffix,
			ServerHeader: p.ServerHeader,
		})
	}
	return &Detector{sigs: sigs, resolver: resolver}
}

// Result is one attribution.
type Result struct {
	Provider string
	// Method records which heuristic matched: "host", "cname", "server",
	// or "via".
	Method string
}

// Attribute inspects one HAR entry and returns the CDN provider that
// served it, if any heuristic matches.
func (d *Detector) Attribute(e *har.Entry) (Result, bool) {
	host := hostOf(e.Request.URL)

	// 1. Host pattern.
	for _, s := range d.sigs {
		if s.HostSuffix != "" && strings.HasSuffix(host, s.HostSuffix) {
			return Result{Provider: s.Provider, Method: "host"}, true
		}
	}
	// 2. Server header.
	if sv := strings.ToLower(e.Response.HeaderValue("Server")); sv != "" {
		for _, s := range d.sigs {
			if s.ServerHeader != "" && sv == strings.ToLower(s.ServerHeader) {
				return Result{Provider: s.Provider, Method: "server"}, true
			}
		}
	}
	// 3. Via header.
	if via := strings.ToLower(e.Response.HeaderValue("Via")); via != "" {
		for _, s := range d.sigs {
			if strings.Contains(via, s.Provider) {
				return Result{Provider: s.Provider, Method: "via"}, true
			}
		}
	}
	// 4. CNAME chain.
	if d.resolver != nil {
		if res, err := d.resolver.Resolve(host, 0); err == nil {
			for _, cname := range res.Record.Chain {
				for _, s := range d.sigs {
					if s.CNAMESuffix != "" && strings.HasSuffix(cname, s.CNAMESuffix) {
						return Result{Provider: s.Provider, Method: "cname"}, true
					}
				}
			}
		}
	}
	return Result{}, false
}

// CacheStatus classifies the entry's CDN cache outcome from the X-Cache
// header (the mechanism at least two major CDNs expose, per the paper):
// +1 hit, 0 unknown, -1 miss.
func CacheStatus(e *har.Entry) int {
	switch strings.ToUpper(e.Response.HeaderValue("X-Cache")) {
	case "HIT", "TCP_HIT", "HIT FROM CLOUDFRONT":
		return 1
	case "MISS", "TCP_MISS", "MISS FROM CLOUDFRONT":
		return -1
	default:
		return 0
	}
}

func hostOf(raw string) string {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}
