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
//
// The list is scanned tag by tag, so a comma inside a tag's quotes is
// part of the tag (§2.3 allows it). A header that is not "*" or a list
// of entity-tags matches nothing: the request is answered in full.
func ETagMatch(ifNoneMatch, etag string) bool {
	if etag == "" {
		return false
	}
	v := strings.Trim(ifNoneMatch, " \t")
	if v == "*" {
		return true
	}
	want, matched := weakTrim(etag), false
	for i := 0; i < len(v); {
		if c := v[i]; c == ',' || c == ' ' || c == '\t' {
			i++
			continue
		}
		// An entity-tag: [W/] DQUOTE *etagc DQUOTE.
		open := i
		if strings.HasPrefix(v[open:], "W/") {
			open += 2
		}
		if open == len(v) || v[open] != '"' {
			return false
		}
		end := open + 1
		for end < len(v) && isETagc(v[end]) {
			end++
		}
		if end == len(v) || v[end] != '"' {
			return false
		}
		end++
		matched = matched || v[open:end] == want
		// Then OWS, and a comma or the end.
		i = end
		for i < len(v) && (v[i] == ' ' || v[i] == '\t') {
			i++
		}
		if i < len(v) && v[i] != ',' {
			return false
		}
	}
	return matched
}

// isETagc reports whether c may appear inside an entity-tag's quotes:
// etagc = %x21 / %x23-7E / obs-text.
func isETagc(c byte) bool {
	return c == 0x21 || (c >= 0x23 && c != 0x7F)
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
