package webgen

import (
	"fmt"
	"strings"
)

// RenderHTML renders the page's root document markup from the model. The
// markup round-trips through the htmlx scanner: every depth-1 object,
// hint, and link is discoverable by parsing, so the real-HTTP integration
// path (webserve + browser) exercises genuine HTML parsing.
func (m *PageModel) RenderHTML() string {
	var b strings.Builder
	b.Grow(4096)
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n")
	fmt.Fprintf(&b, "<meta charset=\"utf-8\">\n<title>%s</title>\n", m.Page.Title())
	fmt.Fprintf(&b, "<meta name=\"generator\" content=\"webgen\">\n")

	for _, h := range m.Hints {
		if h.Type == "preload" && h.ObjectIndex >= 0 {
			as := "image"
			switch m.Objects[h.ObjectIndex].Role {
			case RoleCSS:
				as = "style"
			case RoleJS:
				as = "script"
			case RoleFont:
				as = "font"
			}
			fmt.Fprintf(&b, "<link rel=\"preload\" as=\"%s\" href=\"%s\">\n", as, h.Target)
			continue
		}
		fmt.Fprintf(&b, "<link rel=\"%s\" href=\"%s\">\n", h.Type, h.Target)
	}
	docIdx := m.DocIndex()
	var fontFaces []string
	for i, o := range m.Objects {
		if i == docIdx || o.Parent != docIdx {
			continue
		}
		switch o.Role {
		case RoleCSS:
			fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"%s\">\n", o.URL)
		case RoleJS:
			if o.Async {
				fmt.Fprintf(&b, "<script src=\"%s\" async></script>\n", o.URL)
			} else {
				fmt.Fprintf(&b, "<script src=\"%s\"></script>\n", o.URL)
			}
		case RoleFont:
			fontFaces = append(fontFaces, o.URL)
		}
	}
	if len(fontFaces) > 0 {
		// Depth-1 fonts load through inline critical CSS, not preload
		// hints (hint counts must reflect the model's Hints exactly).
		b.WriteString("<style>\n")
		for i, u := range fontFaces {
			fmt.Fprintf(&b, "@font-face { font-family: f%d; src: url(\"%s\"); }\n", i, u)
		}
		b.WriteString("</style>\n")
	}
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", m.Page.Title())
	for i := 0; i < m.AdSlots; i++ {
		fmt.Fprintf(&b, "<div class=\"ad-slot hb-slot\" id=\"slot-%d\"></div>\n", i)
	}
	for i, o := range m.Objects {
		if i == docIdx || o.Parent != docIdx {
			continue
		}
		switch o.Role {
		case RoleImage, RoleAdImage, RoleBeacon:
			fmt.Fprintf(&b, "<img src=\"%s\" alt=\"\">\n", o.URL)
		case RoleIframe:
			fmt.Fprintf(&b, "<iframe src=\"%s\"></iframe>\n", o.URL)
		case RoleMedia:
			fmt.Fprintf(&b, "<video src=\"%s\"></video>\n", o.URL)
		case RoleJSON, RoleData, RoleAdJS, RoleBid:
			// Fetched by inline bootstrap code; emit a marker the
			// body-scanner recognizes.
			fmt.Fprintf(&b, "<script>loadResource(\"%s\");</script>\n", o.URL)
		}
	}
	for _, l := range m.Links() {
		fmt.Fprintf(&b, "<p><a href=\"%s\">%s</a></p>\n", l, l)
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// ChildRefs returns the URLs an object's body references (its dependency
// children, §5.4). For the root document this is every depth-1 object.
func (m *PageModel) ChildRefs(parentIdx int) []string {
	var out []string
	for i, o := range m.Objects {
		if i == 0 {
			continue
		}
		if o.Parent == parentIdx {
			out = append(out, o.URL)
		}
	}
	return out
}

// RenderBody renders a synthetic body for a non-document object: real
// child references embedded in role-appropriate syntax, padded toward the
// declared size (capped at maxFill bytes so huge objects do not
// materialize in memory; the declared Content-Length still reflects
// Object.Size only when the cap is not hit).
func (m *PageModel) RenderBody(idx int, maxFill int) string {
	if maxFill <= 0 {
		maxFill = 64 << 10
	}
	o := m.Objects[idx]
	var b strings.Builder
	children := m.ChildRefs(idx)
	switch o.Role {
	case RoleCSS:
		for i, c := range children {
			fmt.Fprintf(&b, ".c%d { background: url(\"%s\"); }\n", i, c)
		}
		b.WriteString("body { margin: 0; }\n")
		padTo(&b, o.Size, maxFill, "/* pad */\n")
	case RoleJS, RoleAdJS:
		for _, c := range children {
			fmt.Fprintf(&b, "loadResource(\"%s\");\n", c)
		}
		b.WriteString("console.log(\"ready\");\n")
		padTo(&b, o.Size, maxFill, "// pad\n")
	case RoleIframe:
		b.WriteString("<!DOCTYPE html><html><body>\n")
		for _, c := range children {
			fmt.Fprintf(&b, "<img src=\"%s\">\n", c)
		}
		b.WriteString("</body></html>\n")
		padTo(&b, o.Size, maxFill, "<!-- pad -->\n")
	case RoleJSON, RoleBid:
		fmt.Fprintf(&b, "{\"id\": %d, \"children\": [", idx)
		for i, c := range children {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q", c)
		}
		b.WriteString("]}")
	default:
		padTo(&b, o.Size, maxFill, "x")
	}
	return b.String()
}

func padTo(b *strings.Builder, size int64, maxFill int, unit string) {
	target := int(size)
	if target > maxFill {
		target = maxFill
	}
	for b.Len() < target {
		b.WriteString(unit)
	}
}
