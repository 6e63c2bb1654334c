package httpsem

import (
	"strconv"
	"strings"
	"time"
)

// HeuristicFraction is the RFC 7234 §4.2.2 heuristic freshness factor:
// responses without explicit freshness stay fresh for this fraction of
// the time since they were last modified (the "10% of Date −
// Last-Modified" rule browsers ship).
const HeuristicFraction = 0.1

// Freshness is one response's computed caching policy as a *private*
// (browser) cache sees it: whether it may be stored, how long it stays
// fresh, and which validators it carries for conditional revalidation.
// It is the single shared parse behind both the study's Cacheable
// classifier and the browser cache in internal/browser.
type Freshness struct {
	// Storable reports whether a private cache may store the response
	// (method, status, and no-store permitting; `private` bars only
	// shared caches and is storable here).
	Storable bool
	// AlwaysRevalidate marks responses that may be stored but never
	// served without a successful revalidation: no-cache, or the
	// HTTP/1.0 Pragma equivalent.
	AlwaysRevalidate bool
	// Lifetime is the freshness lifetime (RFC 7234 §4.2): explicit
	// max-age wins, then Expires − Date, then the §4.2.2 heuristic.
	// Zero means stale on arrival.
	Lifetime time.Duration
	// Heuristic is set when Lifetime came from the §4.2.2 heuristic.
	Heuristic bool
	// InitialAge is the Age header: time already spent in upstream
	// caches, counted against Lifetime.
	InitialAge time.Duration
	// ETag and LastModified are the response's validators, verbatim.
	ETag         string
	LastModified string
}

// HasValidator reports whether a conditional request can be built.
func (f *Freshness) HasValidator() bool { return f.ETag != "" || f.LastModified != "" }

// FreshAt reports whether a copy stored at storedAt may still be served
// without revalidation at now.
func (f *Freshness) FreshAt(storedAt, now time.Time) bool {
	if f.AlwaysRevalidate {
		return false
	}
	return now.Sub(storedAt)+f.InitialAge < f.Lifetime
}

// ComputeFreshness derives the private-cache policy of a response. It
// shares every header parse (Cache-Control directives, HTTP dates, the
// Pragma escape hatch) with Cacheable; the two differ only in policy —
// Cacheable answers the study's shared-or-private counting question,
// ComputeFreshness answers what the simulated browser may do.
func ComputeFreshness(r Response) Freshness {
	f := Freshness{ETag: r.ETag, LastModified: r.LastModified}
	if !cacheableMethod(r.Method) || !cacheableStatus(r.Status) {
		return f
	}
	d := ParseCacheControl(r.CacheControl)
	if d.NoStore {
		return f
	}
	f.Storable = true
	f.AlwaysRevalidate = d.NoCache || pragmaNoCache(r)

	respDate, haveDate := parseHTTPDate(r.Date)
	switch {
	case d.HasMaxAge:
		// A private cache uses max-age and ignores s-maxage.
		f.Lifetime = d.MaxAge
	case r.Expires != "":
		// Expires − Date; a malformed Expires (historical "0") or a
		// missing Date means no usable explicit lifetime.
		if exp, ok := parseHTTPDate(r.Expires); ok && haveDate {
			f.Lifetime = exp.Sub(respDate)
		}
	case r.LastModified != "":
		if lm, ok := parseHTTPDate(r.LastModified); ok && haveDate && respDate.After(lm) {
			f.Lifetime = time.Duration(HeuristicFraction * float64(respDate.Sub(lm)))
			f.Heuristic = true
		}
	}
	if f.Lifetime < 0 {
		f.Lifetime = 0
	}
	// Atoi("") would allocate its error on every response without Age.
	if r.Age != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(r.Age)); err == nil && secs > 0 {
			f.InitialAge = time.Duration(secs) * time.Second
		}
	}
	return f
}
