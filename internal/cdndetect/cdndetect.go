// Package cdndetect attributes HTTP responses to CDN providers using the
// paper's heuristic toolkit (§5.1): serving-host domain patterns, DNS
// CNAME chains, and response headers (Server, Via, X-Cache). As in the
// paper, the heuristics need not be exhaustive — identifying whether an
// object was delivered by a known CDN suffices.
package cdndetect

import (
	"strings"

	"repro/internal/cdn"
	"repro/internal/har"
	"repro/internal/urlx"
)

// Signature is one provider's detection fingerprint.
type Signature struct {
	Provider    string
	HostSuffix  string
	CNAMESuffix string
	// ServerHeader is the provider's Server header value, lowercased.
	ServerHeader string
}

// Detector matches responses against a signature table. It holds no
// mutable state, so one detector serves any number of workers.
type Detector struct {
	sigs   []Signature
	cnames func(host string) []string
}

// New builds a detector from the simulated provider roster. cnames, if
// non-nil, returns the CNAME chain of a lowercase hostname (for the
// synthetic web, webgen.Web.CNAMEChain) and enables CNAME-chain
// attribution for first-party hostnames; it must be safe for concurrent
// use.
func New(cnames func(host string) []string) *Detector {
	var sigs []Signature
	for _, p := range cdn.Providers() {
		sigs = append(sigs, Signature{
			Provider:     p.Name,
			HostSuffix:   p.HostSuffix,
			CNAMESuffix:  p.CNAMESuffix,
			ServerHeader: strings.ToLower(p.ServerHeader),
		})
	}
	return &Detector{sigs: sigs, cnames: cnames}
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
	return d.AttributeHost(urlx.Host(e.Request.URL), e)
}

// AttributeHost is Attribute for a caller that has already parsed the
// entry's host: host must be urlx.Host(e.Request.URL).
func (d *Detector) AttributeHost(host string, e *har.Entry) (Result, bool) {
	// 1. Host pattern.
	for _, s := range d.sigs {
		if s.HostSuffix != "" && strings.HasSuffix(host, s.HostSuffix) {
			return Result{Provider: s.Provider, Method: "host"}, true
		}
	}
	// 2. Server header.
	if sv := strings.ToLower(e.Response.HeaderValue("Server")); sv != "" {
		for _, s := range d.sigs {
			if s.ServerHeader != "" && sv == s.ServerHeader {
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
	if d.cnames != nil {
		for _, cname := range d.cnames(host) {
			for _, s := range d.sigs {
				if s.CNAMESuffix != "" && strings.HasSuffix(cname, s.CNAMESuffix) {
					return Result{Provider: s.Provider, Method: "cname"}, true
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
