// Package cdndetect attributes HTTP responses to CDN providers using the
// paper's heuristic toolkit (§5.1): serving-host domain patterns, DNS
// CNAME chains, and response headers (Server, Via, X-Cache). As in the
// paper, the heuristics need not be exhaustive — identifying whether an
// object was delivered by a known CDN suffices.
package cdndetect

import (
	"strings"

	"repro/internal/cdn"
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
	sigs []Signature
	// hostSuffix, cnameSuffix and server index sigs by HostSuffix,
	// CNAMESuffix and ServerHeader: each maps a value to the position of
	// the first signature carrying it, so a lookup picks the signature a
	// scan of sigs in order would. Every roster suffix begins with '.'.
	hostSuffix, cnameSuffix, server map[string]int
	cnames                          func(host string) []string
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
	d := &Detector{
		sigs:        sigs,
		hostSuffix:  make(map[string]int),
		cnameSuffix: make(map[string]int),
		server:      make(map[string]int),
		cnames:      cnames,
	}
	for i := len(sigs) - 1; i >= 0; i-- { // the first signature wins
		s := &sigs[i]
		if s.HostSuffix != "" {
			d.hostSuffix[s.HostSuffix] = i
		}
		if s.CNAMESuffix != "" {
			d.cnameSuffix[s.CNAMESuffix] = i
		}
		if s.ServerHeader != "" {
			d.server[s.ServerHeader] = i
		}
	}
	return d
}

// firstSuffix returns the position of the first signature whose suffix
// in idx ends name, or -1. The suffixes begin with '.', so only name's
// dot-led tails can match: one lookup per label instead of a scan of
// every signature.
func firstSuffix(idx map[string]int, name string) int {
	best := -1
	for i := strings.IndexByte(name, '.'); i >= 0; {
		if k, ok := idx[name[i:]]; ok && (best < 0 || k < best) {
			best = k
		}
		j := strings.IndexByte(name[i+1:], '.')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return best
}

// Result is one attribution.
type Result struct {
	Provider string
	// Method records which heuristic matched: "host", "cname", "server",
	// or "via".
	Method string
}

// Attribute returns the CDN provider that served a response, if any
// heuristic matches. host is the request URL's lowercase hostname
// (urlx.Host); server and via are the response's Server and Via header
// values, "" when absent. The caller reads the headers: the study's
// measure pass finds every header it needs in one scan of the entry.
func (d *Detector) Attribute(host, server, via string) (Result, bool) {
	// 1. Host pattern.
	if k := firstSuffix(d.hostSuffix, host); k >= 0 {
		return Result{Provider: d.sigs[k].Provider, Method: "host"}, true
	}
	// 2. Server header.
	if sv := strings.ToLower(server); sv != "" {
		if k, ok := d.server[sv]; ok {
			return Result{Provider: d.sigs[k].Provider, Method: "server"}, true
		}
	}
	// 3. Via header.
	if via = strings.ToLower(via); via != "" {
		for _, s := range d.sigs {
			if strings.Contains(via, s.Provider) {
				return Result{Provider: s.Provider, Method: "via"}, true
			}
		}
	}
	// 4. CNAME chain.
	if d.cnames != nil {
		for _, cname := range d.cnames(host) {
			if k := firstSuffix(d.cnameSuffix, cname); k >= 0 {
				return Result{Provider: d.sigs[k].Provider, Method: "cname"}, true
			}
		}
	}
	return Result{}, false
}

// CacheStatus classifies a response's CDN cache outcome from its X-Cache
// header value (the mechanism at least two major CDNs expose, per the
// paper): +1 hit, 0 unknown, -1 miss.
func CacheStatus(xCache string) int {
	switch strings.ToUpper(xCache) {
	case "HIT", "TCP_HIT", "HIT FROM CLOUDFRONT":
		return 1
	case "MISS", "TCP_MISS", "MISS FROM CLOUDFRONT":
		return -1
	default:
		return 0
	}
}
