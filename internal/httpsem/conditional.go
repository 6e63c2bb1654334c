package httpsem

// Conditional-request evaluation (RFC 7232): the one shared
// implementation behind every server in the tree — webserve's synthetic
// origins and hisparserve's control plane both delegate here, so a GET
// carrying If-None-Match / If-Modified-Since is answered identically no
// matter which server receives it.

import "strings"

// ETagMatch reports whether the If-None-Match header value matches etag.
// Per RFC 7232 §3.2 the header is "*" or a comma-separated list of
// entity-tags; If-None-Match uses the *weak* comparison (§2.3.2), so W/
// prefixes are ignored on both sides. Both sides keep their quotes:
// `"abc"` matches `W/"abc"` but not `"abc-gzip"` — a content-coded
// variant (Vary: Accept-Encoding) carries a different entity-tag and must
// never validate against the identity representation's tag.
func ETagMatch(ifNoneMatch, etag string) bool {
	if etag == "" {
		return false
	}
	want := weakTrim(etag)
	for rest, more := ifNoneMatch, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		if weakTrim(part) == want {
			return true
		}
	}
	return false
}

// weakTrim strips the weakness prefix from an entity-tag.
func weakTrim(tag string) string { return strings.TrimPrefix(tag, "W/") }

// NotModifiedSince reports whether a resource whose Last-Modified is
// lastModified is unchanged at the client's If-Modified-Since time:
// true when lastModified <= ifModifiedSince. Malformed or absent dates
// on either side report false (the request is answered in full).
func NotModifiedSince(ifModifiedSince, lastModified string) bool {
	lm, ok1 := parseHTTPDate(lastModified)
	since, ok2 := parseHTTPDate(ifModifiedSince)
	return ok1 && ok2 && !lm.After(since)
}

// CheckNotModified evaluates a conditional GET/HEAD against the selected
// representation's validators and reports whether the server should
// answer 304. If-None-Match, when present, takes precedence and
// If-Modified-Since is ignored (RFC 7232 §6 evaluation order).
func CheckNotModified(ifNoneMatch, ifModifiedSince, etag, lastModified string) bool {
	if ifNoneMatch != "" {
		return ETagMatch(ifNoneMatch, etag)
	}
	if ifModifiedSince != "" {
		return NotModifiedSince(ifModifiedSince, lastModified)
	}
	return false
}
