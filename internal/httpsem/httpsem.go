// Package httpsem implements the HTTP caching semantics the study uses to
// count cacheable objects (§5.1): a practical subset of RFC 7234 keyed on
// request method, response status, and Cache-Control / Expires / Pragma
// headers — the same signal set the MDN "cacheable" definition the paper
// cites describes.
package httpsem

import (
	"strconv"
	"strings"
	"time"
)

// cacheableStatus lists response codes cacheable by default (RFC 7231
// §6.1).
var cacheableStatus = map[int]bool{
	200: true, 203: true, 204: true, 206: true, 300: true,
	301: true, 404: true, 405: true, 410: true, 414: true, 501: true,
}

// Directives is a parsed Cache-Control header.
type Directives struct {
	NoStore         bool
	NoCache         bool
	Private         bool
	Public          bool
	MaxAge          time.Duration
	HasMaxAge       bool
	SMaxAge         time.Duration
	HasSMaxAge      bool
	MustRevalidate  bool
	Immutable       bool
	StaleWhileReval time.Duration
}

// ParseCacheControl parses a Cache-Control header value. It walks the
// comma-separated directives in place: the browser's freshness check and
// the study's cacheability count both call it once per response. The
// value is lowercased once up front; a ',' never sits inside a UTF-8
// sequence, so that equals lowercasing each directive.
func ParseCacheControl(v string) Directives {
	var d Directives
	for rest := strings.ToLower(v); rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		val = strings.Trim(strings.TrimSpace(val), `"`)
		switch key {
		case "no-store":
			d.NoStore = true
		case "no-cache":
			d.NoCache = true
		case "private":
			d.Private = true
		case "public":
			d.Public = true
		case "must-revalidate":
			d.MustRevalidate = true
		case "immutable":
			d.Immutable = true
		case "max-age":
			if hasVal {
				if secs, err := strconv.Atoi(val); err == nil {
					d.MaxAge = time.Duration(secs) * time.Second
					d.HasMaxAge = true
				}
			}
		case "s-maxage":
			if hasVal {
				if secs, err := strconv.Atoi(val); err == nil {
					d.SMaxAge = time.Duration(secs) * time.Second
					d.HasSMaxAge = true
				}
			}
		case "stale-while-revalidate":
			if hasVal {
				if secs, err := strconv.Atoi(val); err == nil {
					d.StaleWhileReval = time.Duration(secs) * time.Second
				}
			}
		}
	}
	return d
}

// Response is the minimal response view the classifier and the browser
// cache need.
type Response struct {
	Method       string // request method
	Status       int
	CacheControl string
	Pragma       string
	Expires      string // raw Expires header
	Date         string // raw Date header
	Age          string // raw Age header (seconds spent in upstream caches)
	ETag         string // entity validator, verbatim (quotes included)
	LastModified string // raw Last-Modified header
}

// Cacheable reports whether the response may be stored by a shared or
// private cache, per the study's definition of a cacheable object.
func Cacheable(r Response) bool {
	m := strings.ToUpper(r.Method)
	if m != "" && m != "GET" && m != "HEAD" {
		return false
	}
	if !cacheableStatus[r.Status] {
		return false
	}
	d := ParseCacheControl(r.CacheControl)
	switch {
	case d.NoStore:
		return false
	case d.NoCache:
		// Storable but must revalidate every use; the study counts these
		// as non-cacheable since they cannot be served without a round
		// trip.
		return false
	case d.HasMaxAge && d.MaxAge <= 0 && !d.HasSMaxAge:
		return false
	case pragmaNoCache(r):
		return false
	}
	if d.HasMaxAge || d.HasSMaxAge || d.Public || d.Immutable {
		return true
	}
	if r.Expires != "" {
		exp, ok := parseHTTPDate(r.Expires)
		if !ok {
			// Historical servers send "0" or malformed dates: treat as
			// already expired.
			return false
		}
		if r.Date != "" {
			if dt, ok := parseHTTPDate(r.Date); ok {
				return exp.After(dt)
			}
		}
		// No usable Date reference. RFC 7234 would fall back to receipt
		// time, but a wall-clock read here would make the classification
		// of a recorded response depend on when the analysis runs. A
		// valid Expires without a Date still signals explicit freshness
		// intent, so count the response cacheable.
		return true
	}
	// Heuristic freshness (RFC 7234 §4.2.2): responses without explicit
	// freshness are cacheable by default for cacheable statuses.
	return !d.Private
}

// pragmaNoCache reports the HTTP/1.0 no-cache escape hatch: it only
// counts when no Cache-Control header overrides it.
func pragmaNoCache(r Response) bool {
	return strings.Contains(strings.ToLower(r.Pragma), "no-cache") && r.CacheControl == ""
}

// parseHTTPDate parses an HTTP date header. The study's servers emit
// RFC 1123 exclusively (the http.TimeFormat shape), so that is the one
// layout accepted; anything else is the malformed-date case callers
// treat as "already expired".
func parseHTTPDate(v string) (time.Time, bool) {
	t, err := time.Parse(time.RFC1123, v)
	return t, err == nil
}

// FormatDate renders t in UTC as an HTTP IMF-fixdate ("Mon, 02 Jan 2006
// 15:04:05 GMT", the http.TimeFormat shape parseHTTPDate reads back).
// It writes the fixed-width fields directly rather than interpreting a
// layout: every simulated response carries a Date header and every
// cacheable one a Last-Modified. A year outside 0–9999 has no
// four-digit form and is rendered by time.Format.
func FormatDate(t time.Time) string {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.Format("Mon, 02 Jan 2006 15:04:05 GMT")
	}
	hour, minute, sec := t.Clock()
	const days, months = "SunMonTueWedThuFriSat", "JanFebMarAprMayJunJulAugSepOctNovDec"
	var b [29]byte
	wd, mo := 3*int(t.Weekday()), 3*(int(month)-1)
	copy(b[0:3], days[wd:wd+3])
	b[3], b[4] = ',', ' '
	put2(b[5:7], day)
	b[7] = ' '
	copy(b[8:11], months[mo:mo+3])
	b[11] = ' '
	put2(b[12:14], year/100)
	put2(b[14:16], year%100)
	b[16] = ' '
	put2(b[17:19], hour)
	b[19] = ':'
	put2(b[20:22], minute)
	b[22] = ':'
	put2(b[23:25], sec)
	copy(b[25:], " GMT")
	return string(b[:])
}

// put2 writes v in [0,99] as two decimal digits.
func put2(b []byte, v int) {
	b[0], b[1] = byte('0'+v/10), byte('0'+v%10)
}
