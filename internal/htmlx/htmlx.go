// Package htmlx is a minimal HTML tokenizer and document scanner. It
// extracts exactly what the measurement pipeline needs from a page's root
// document: sub-resource references (scripts, stylesheets, images, iframes,
// media), anchor links, and HTML5 resource hints.
//
// It is not a general-purpose HTML5 parser; it is a forgiving tag scanner
// in the spirit of how measurement crawlers treat markup: unclosed tags,
// odd quoting, and comments are tolerated, and anything unrecognized is
// skipped.
package htmlx

import (
	"strings"
)

// ResourceKind classifies a sub-resource reference found in markup.
type ResourceKind int

// Resource kinds, ordered roughly by how browsers prioritize them.
const (
	KindOther ResourceKind = iota
	KindStylesheet
	KindScript
	KindImage
	KindIframe
	KindMedia // audio/video/source
	KindFont
)

var kindNames = map[ResourceKind]string{
	KindOther:      "other",
	KindStylesheet: "stylesheet",
	KindScript:     "script",
	KindImage:      "image",
	KindIframe:     "iframe",
	KindMedia:      "media",
	KindFont:       "font",
}

// String returns a short lowercase name for the kind.
func (k ResourceKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "other"
}

// Resource is a sub-resource reference in the document.
type Resource struct {
	URL   string // raw attribute value, unresolved
	Kind  ResourceKind
	Tag   string // element name, lowercase
	Async bool   // script with async/defer
}

// HintType enumerates the HTML5 resource hints (W3C Resource Hints +
// preload).
type HintType string

// The resource hints tracked by the study (§5.5).
const (
	HintDNSPrefetch HintType = "dns-prefetch"
	HintPreconnect  HintType = "preconnect"
	HintPrefetch    HintType = "prefetch"
	HintPreload     HintType = "preload"
	HintPrerender   HintType = "prerender"
)

// Hint is one <link rel=...> resource hint.
type Hint struct {
	Type HintType
	Href string
	As   string // as= attribute for preload
}

// Document is the scan result for one HTML document.
type Document struct {
	Title         string
	Resources     []Resource
	Links         []string // <a href> values, raw
	Hints         []Hint
	InlineScripts int
	Metas         map[string]string // name -> content
	AdSlots       int               // elements carrying an ad-slot marker class/id
}

// hintRels maps rel values to hint types.
var hintRels = map[string]HintType{
	"dns-prefetch": HintDNSPrefetch,
	"preconnect":   HintPreconnect,
	"prefetch":     HintPrefetch,
	"preload":      HintPreload,
	"prerender":    HintPrerender,
}

// Parse scans an HTML document and returns its extracted references.
func Parse(htmlSrc string) *Document {
	d := &Document{Metas: make(map[string]string)}
	z := newTokenizer(htmlSrc)
	for {
		tok, ok := z.next()
		if !ok {
			break
		}
		switch tok.name {
		case "title":
			d.Title = strings.TrimSpace(z.rawTextUntil("</title"))
		case "script":
			if src := tok.attrs["src"]; src != "" {
				_, async := tok.attrs["async"]
				_, deferred := tok.attrs["defer"]
				d.Resources = append(d.Resources, Resource{URL: src, Kind: KindScript, Tag: "script", Async: async || deferred})
			} else if !tok.selfClosing {
				d.InlineScripts++
			}
			if !tok.selfClosing {
				z.rawTextUntil("</script")
			}
		case "link":
			rel := strings.ToLower(tok.attrs["rel"])
			href := tok.attrs["href"]
			if href == "" {
				continue
			}
			if ht, ok := hintRels[rel]; ok {
				d.Hints = append(d.Hints, Hint{Type: ht, Href: href, As: strings.ToLower(tok.attrs["as"])})
				if ht == HintPreload && strings.ToLower(tok.attrs["as"]) == "font" {
					d.Resources = append(d.Resources, Resource{URL: href, Kind: KindFont, Tag: "link"})
				}
				continue
			}
			if strings.Contains(rel, "stylesheet") {
				d.Resources = append(d.Resources, Resource{URL: href, Kind: KindStylesheet, Tag: "link"})
			}
		case "img":
			if src := tok.attrs["src"]; src != "" {
				d.Resources = append(d.Resources, Resource{URL: src, Kind: KindImage, Tag: "img"})
			}
		case "iframe":
			if src := tok.attrs["src"]; src != "" {
				d.Resources = append(d.Resources, Resource{URL: src, Kind: KindIframe, Tag: "iframe"})
			}
		case "source", "video", "audio", "track", "embed":
			if src := tok.attrs["src"]; src != "" {
				d.Resources = append(d.Resources, Resource{URL: src, Kind: KindMedia, Tag: tok.name})
			}
		case "a":
			if href := tok.attrs["href"]; href != "" {
				d.Links = append(d.Links, href)
			}
		case "meta":
			if name := strings.ToLower(tok.attrs["name"]); name != "" {
				d.Metas[name] = tok.attrs["content"]
			}
		case "div", "section", "aside", "ins":
			cls := tok.attrs["class"] + " " + tok.attrs["id"]
			if strings.Contains(cls, "ad-slot") || strings.Contains(cls, "adsbygoogle") || strings.Contains(cls, "hb-slot") {
				d.AdSlots++
			}
		}
	}
	return d
}

// tag is one parsed start tag with its attributes.
type tag struct {
	name        string
	attrs       map[string]string
	selfClosing bool
}

// tokenizer walks HTML source emitting start tags only.
type tokenizer struct {
	src string
	pos int
}

func newTokenizer(src string) *tokenizer { return &tokenizer{src: src} }

// next returns the next start tag, skipping text, comments, end tags, and
// declarations. ok is false at end of input.
func (z *tokenizer) next() (tag, bool) {
	for {
		i := strings.IndexByte(z.src[z.pos:], '<')
		if i < 0 {
			z.pos = len(z.src)
			return tag{}, false
		}
		z.pos += i
		rest := z.src[z.pos:]
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest, "-->")
			if end < 0 {
				z.pos = len(z.src)
				return tag{}, false
			}
			z.pos += end + 3
		case strings.HasPrefix(rest, "</"), strings.HasPrefix(rest, "<!"), strings.HasPrefix(rest, "<?"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				z.pos = len(z.src)
				return tag{}, false
			}
			z.pos += end + 1
		default:
			t, n, ok := parseStartTag(rest)
			if !ok {
				z.pos++ // stray '<'
				continue
			}
			z.pos += n
			return t, true
		}
	}
}

// rawTextUntil consumes raw text up to (and including the close of) the
// given case-insensitive end-tag prefix, returning the text. Used for
// <script> and <title> content, which must not be tag-scanned.
func (z *tokenizer) rawTextUntil(endPrefix string) string {
	lower := strings.ToLower(z.src[z.pos:])
	i := strings.Index(lower, endPrefix)
	if i < 0 {
		text := z.src[z.pos:]
		z.pos = len(z.src)
		return text
	}
	text := z.src[z.pos : z.pos+i]
	rest := z.src[z.pos+i:]
	if gt := strings.IndexByte(rest, '>'); gt >= 0 {
		z.pos += i + gt + 1
	} else {
		z.pos = len(z.src)
	}
	return text
}

// parseStartTag parses "<name attr=val ...>" at the start of s, returning
// the tag and the number of bytes consumed.
func parseStartTag(s string) (tag, int, bool) {
	if len(s) < 2 || s[0] != '<' || !isNameStart(s[1]) {
		return tag{}, 0, false
	}
	i := 1
	for i < len(s) && isNameChar(s[i]) {
		i++
	}
	t := tag{name: strings.ToLower(s[1:i]), attrs: make(map[string]string)}
	for i < len(s) {
		// Skip whitespace.
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			return t, i, true
		}
		if s[i] == '>' {
			return t, i + 1, true
		}
		if s[i] == '/' {
			t.selfClosing = true
			i++
			continue
		}
		// Attribute name.
		start := i
		for i < len(s) && !isSpace(s[i]) && s[i] != '=' && s[i] != '>' && s[i] != '/' {
			i++
		}
		name := strings.ToLower(s[start:i])
		if name == "" {
			i++
			continue
		}
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i < len(s) && s[i] == '=' {
			i++
			for i < len(s) && isSpace(s[i]) {
				i++
			}
			var val string
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				q := s[i]
				i++
				end := strings.IndexByte(s[i:], q)
				if end < 0 {
					val = s[i:]
					i = len(s)
				} else {
					val = s[i : i+end]
					i += end + 1
				}
			} else {
				start := i
				for i < len(s) && !isSpace(s[i]) && s[i] != '>' {
					i++
				}
				val = s[start:i]
			}
			t.attrs[name] = val
		} else {
			t.attrs[name] = "" // boolean attribute
		}
	}
	return t, i, true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' }
func isNameStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isNameChar(c byte) bool {
	return isNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}
