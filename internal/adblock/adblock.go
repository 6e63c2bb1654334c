// Package adblock implements an Easylist-syntax URL filter engine — the
// study's tracker detector (§6.3). It supports the network-filter subset
// that matters for counting ad/tracking requests: domain anchors
// (||example.com^), start/end anchors (|, |), wildcards (*), the
// separator class (^), exception rules (@@), and the common $options
// (script, image, subdocument, xmlhttprequest, third-party, domain=).
// Element-hiding rules (##) are ignored, as they do not generate network
// requests.
package adblock

import (
	"strings"

	"repro/internal/urlx"
)

// RequestType classifies a request for $type options.
type RequestType string

// Request types.
const (
	TypeScript      RequestType = "script"
	TypeImage       RequestType = "image"
	TypeStylesheet  RequestType = "stylesheet"
	TypeSubdocument RequestType = "subdocument"
	TypeXHR         RequestType = "xmlhttprequest"
	TypeMedia       RequestType = "media"
	TypeFont        RequestType = "font"
	TypeOther       RequestType = "other"
)

// Request is the matching context for one URL.
type Request struct {
	URL string
	// Host is urlx.Host(URL), for a caller that has parsed it already;
	// Match parses URL when Host is empty.
	Host     string
	Type     RequestType
	PageHost string // host of the page issuing the request
}

// rule is one compiled network filter.
type rule struct {
	raw        string
	exception  bool
	domainRoot string // ||domain^ anchor, "" if none
	startAnch  bool   // |http://... anchor
	endAnch    bool
	pattern    string   // remaining pattern (after anchors), may contain * and ^
	chunks     []string // pattern split at its * wildcards
	opts       *options
}

type options struct {
	types      map[RequestType]bool
	notTypes   map[RequestType]bool
	thirdParty *bool
	domains    []string
	notDomains []string
}

// Engine is a compiled filter list. Safe for concurrent use after Compile.
type Engine struct {
	byDomain map[string][]*rule // rules with a ||domain^ anchor
	generic  []*rule
	nRules   int
}

// Compile parses filter-list lines into an engine. Unparsable or
// unsupported lines are skipped (counted in Skipped), as ad blockers do.
func Compile(lines []string) (*Engine, int) {
	e := &Engine{byDomain: make(map[string][]*rule)}
	skipped := 0
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
			continue
		}
		if strings.Contains(line, "##") || strings.Contains(line, "#@#") || strings.Contains(line, "#?#") {
			skipped++ // element hiding: no network effect
			continue
		}
		r, ok := parseRule(line)
		if !ok {
			skipped++
			continue
		}
		e.nRules++
		if r.domainRoot != "" {
			e.byDomain[r.domainRoot] = append(e.byDomain[r.domainRoot], r)
		} else {
			e.generic = append(e.generic, r)
		}
	}
	return e, skipped
}

// Len returns the number of compiled rules.
func (e *Engine) Len() int { return e.nRules }

func parseRule(line string) (*rule, bool) {
	r := &rule{raw: line}
	if rest, ok := strings.CutPrefix(line, "@@"); ok {
		r.exception = true
		line = rest
	}
	// Options.
	if i := strings.LastIndexByte(line, '$'); i >= 0 && !strings.ContainsAny(line[i:], "/") {
		opts, ok := parseOptions(line[i+1:])
		if !ok {
			return nil, false
		}
		r.opts = opts
		line = line[:i]
	}
	switch {
	case strings.HasPrefix(line, "||"):
		rest := line[2:]
		end := strings.IndexAny(rest, "/^*$")
		if end < 0 {
			end = len(rest)
		}
		r.domainRoot = strings.ToLower(rest[:end])
		r.pattern = rest[end:]
		if r.domainRoot == "" {
			return nil, false
		}
	case strings.HasPrefix(line, "|"):
		r.startAnch = true
		line = line[1:]
		if strings.HasSuffix(line, "|") {
			r.endAnch = true
			line = line[:len(line)-1]
		}
		r.pattern = line
	default:
		if strings.HasSuffix(line, "|") {
			r.endAnch = true
			line = line[:len(line)-1]
		}
		r.pattern = line
	}
	if r.domainRoot == "" && strings.Trim(r.pattern, "*") == "" {
		return nil, false // would match everything
	}
	r.chunks = strings.Split(r.pattern, "*")
	return r, true
}

func parseOptions(s string) (*options, bool) {
	o := &options{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		neg := strings.HasPrefix(part, "~")
		part = strings.TrimPrefix(part, "~")
		switch {
		case part == "third-party":
			v := !neg
			o.thirdParty = &v
		case part == "script", part == "image", part == "stylesheet",
			part == "subdocument", part == "xmlhttprequest", part == "media",
			part == "font", part == "other":
			t := RequestType(part)
			if neg {
				if o.notTypes == nil {
					o.notTypes = make(map[RequestType]bool)
				}
				o.notTypes[t] = true
			} else {
				if o.types == nil {
					o.types = make(map[RequestType]bool)
				}
				o.types[t] = true
			}
		case strings.HasPrefix(part, "domain="):
			for _, d := range strings.Split(part[len("domain="):], "|") {
				d = strings.ToLower(strings.TrimSpace(d))
				if neg2, dd := strings.HasPrefix(d, "~"), strings.TrimPrefix(d, "~"); neg2 {
					o.notDomains = append(o.notDomains, dd)
				} else if d != "" {
					o.domains = append(o.domains, d)
				}
			}
		case part == "":
			// tolerate
		default:
			// Unsupported option (e.g. $popup, $csp): skip the rule, the
			// conservative choice for a counter of network requests.
			return nil, false
		}
	}
	return o, true
}

// Match reports whether the request is blocked by the list and, if so,
// by which rule. Exception (@@) rules override blocks.
func (e *Engine) Match(req Request) (string, bool) {
	host := req.Host
	if host == "" {
		host = urlx.Host(req.URL)
	}
	var blockedBy *rule
	tryRules := func(rules []*rule) {
		for _, r := range rules {
			if !r.matches(req, host) {
				continue
			}
			if r.exception {
				blockedBy = nil
				return
			}
			if blockedBy == nil {
				blockedBy = r
			}
		}
	}
	// Domain-anchored rules for the host and its parents.
	h := host
	for h != "" {
		if rules, ok := e.byDomain[h]; ok {
			tryRules(rules)
		}
		i := strings.IndexByte(h, '.')
		if i < 0 {
			break
		}
		h = h[i+1:]
	}
	tryRules(e.generic)
	if blockedBy == nil {
		return "", false
	}
	return blockedBy.raw, true
}

// Blocked is shorthand for Match with only a URL.
func (e *Engine) Blocked(url string) bool {
	_, ok := e.Match(Request{URL: url, Type: TypeOther})
	return ok
}

func (r *rule) matches(req Request, host string) bool {
	if r.opts != nil && !r.opts.allow(req, host) {
		return false
	}
	if r.domainRoot != "" {
		if host != r.domainRoot && !strings.HasSuffix(host, "."+r.domainRoot) {
			return false
		}
		if r.pattern == "" || r.pattern == "^" {
			return true
		}
		// Match the remaining pattern against the URL from the end of the
		// host onwards.
		idx := strings.Index(req.URL, host)
		if idx < 0 {
			return false
		}
		tail := req.URL[idx+len(host):]
		return patternMatch(tail, r.chunks, true, r.endAnch)
	}
	return patternMatch(req.URL, r.chunks, r.startAnch, r.endAnch)
}

func (o *options) allow(req Request, host string) bool {
	if o.types != nil && !o.types[req.Type] {
		return false
	}
	if o.notTypes != nil && o.notTypes[req.Type] {
		return false
	}
	if o.thirdParty != nil {
		third := !sameRegistrable(host, req.PageHost)
		if third != *o.thirdParty {
			return false
		}
	}
	if len(o.domains) > 0 {
		ok := false
		for _, d := range o.domains {
			if req.PageHost == d || strings.HasSuffix(req.PageHost, "."+d) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, d := range o.notDomains {
		if req.PageHost == d || strings.HasSuffix(req.PageHost, "."+d) {
			return false
		}
	}
	return true
}

// sameRegistrable is a light-weight same-site check (suffix sharing of
// the last two labels); the full PSL logic lives in internal/psl, but
// filter-list semantics only need an approximation here.
func sameRegistrable(a, b string) bool {
	return lastLabels(a, 2) == lastLabels(b, 2)
}

func lastLabels(host string, n int) string {
	idx := len(host)
	for i := 0; i < n; i++ {
		j := strings.LastIndexByte(host[:idx], '.')
		if j < 0 {
			return host
		}
		idx = j
	}
	return host[idx+1:]
}

// patternMatch matches an Easylist pattern, given as the chunks between
// its * wildcards (each may hold ^ separators), against text. An
// unanchored chunk led by a literal byte is probed only at offsets that
// hold that byte in either ASCII case; a ^-led chunk is probed at every
// offset.
func patternMatch(text string, chunks []string, anchoredStart, anchoredEnd bool) bool {
	pos := 0
	for ci, chunk := range chunks {
		if chunk == "" {
			continue
		}
		if ci == 0 && anchoredStart {
			n, ok := chunkMatchAt(text, 0, chunk)
			if !ok {
				return false
			}
			pos = n
			continue
		}
		lead := chunk[0]
		lo, up := toLower(lead), toUpper(lead)
		nextLo, nextUp := -1, -1 // next offsets of lo and up; len(text) = none
		found := -1
		for i := pos; i <= len(text); i++ {
			if lead != '^' {
				if nextLo < i {
					nextLo = indexByteFrom(text, i, lo)
				}
				if nextUp < i {
					nextUp = nextLo
					if up != lo {
						nextUp = indexByteFrom(text, i, up)
					}
				}
				if i = min(nextLo, nextUp); i == len(text) {
					break // a literal never matches at the end of text
				}
			}
			if n, ok := chunkMatchAt(text, i, chunk); ok {
				found = n
				break
			}
		}
		if found < 0 {
			return false
		}
		pos = found
	}
	if anchoredEnd {
		last := chunks[len(chunks)-1]
		if last != "" && pos != len(text) {
			return false
		}
	}
	return true
}

// chunkMatchAt matches a literal chunk (which may contain ^ separators)
// at position i; returns the end position on success.
func chunkMatchAt(text string, i int, chunk string) (int, bool) {
	for k := 0; k < len(chunk); k++ {
		c := chunk[k]
		if c == '^' {
			if i >= len(text) {
				// ^ matches end of address only as the final element.
				if k == len(chunk)-1 {
					return i, true
				}
				return 0, false
			}
			if !isSeparator(text[i]) {
				return 0, false
			}
			i++
			continue
		}
		if i >= len(text) || !equalFoldByte(text[i], c) {
			return 0, false
		}
		i++
	}
	return i, true
}

// indexByteFrom returns the first offset at or after i that holds c, or
// len(text) if there is none.
func indexByteFrom(text string, i int, c byte) int {
	if j := strings.IndexByte(text[i:], c); j >= 0 {
		return i + j
	}
	return len(text)
}

func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_', c == '-', c == '.', c == '%':
		return false
	default:
		return true
	}
}

func equalFoldByte(a, b byte) bool {
	return toLower(a) == toLower(b)
}

func toLower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

func toUpper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
}
