// Package mimecat collapses MIME types into the nine content categories
// the paper uses for its content-mix analysis (§5.2): audio, data, font,
// HTML/CSS, image, JavaScript, JSON, video, and unknown.
package mimecat

import "strings"

// Category is one of the paper's nine content categories.
type Category int

// The nine categories. CatHTMLCSS groups markup and stylesheets, as in the
// paper's "HTM/CSS" series.
const (
	CatUnknown Category = iota
	CatHTMLCSS
	CatImage
	CatJS
	CatJSON
	CatFont
	CatAudio
	CatVideo
	CatData
	numCategories
)

var catNames = [...]string{
	CatUnknown: "unknown",
	CatHTMLCSS: "html/css",
	CatImage:   "image",
	CatJS:      "javascript",
	CatJSON:    "json",
	CatFont:    "font",
	CatAudio:   "audio",
	CatVideo:   "video",
	CatData:    "data",
}

// String returns the category's lowercase name.
func (c Category) String() string {
	if c >= 0 && int(c) < len(catNames) {
		return catNames[c]
	}
	return "unknown"
}

// All returns every category in a stable order.
func All() []Category {
	out := make([]Category, 0, numCategories)
	for c := Category(0); c < numCategories; c++ {
		out = append(out, c)
	}
	return out
}

// Essence returns a MIME type's lowercase type/subtype, with parameters
// and surrounding space removed ("Text/CSS; charset=utf-8" → "text/css"):
// the form Of classifies.
func Essence(mime string) string {
	mime = strings.ToLower(strings.TrimSpace(mime))
	if i := strings.IndexByte(mime, ';'); i >= 0 {
		mime = strings.TrimSpace(mime[:i])
	}
	return mime
}

// Of maps a MIME type (optionally with parameters, e.g.
// "text/html; charset=utf-8") to its category.
func Of(mime string) Category {
	mime = Essence(mime)
	switch {
	case mime == "":
		return CatUnknown
	case mime == "text/html", mime == "application/xhtml+xml", mime == "text/css":
		return CatHTMLCSS
	case strings.HasPrefix(mime, "image/"):
		return CatImage
	case mime == "application/javascript", mime == "text/javascript",
		mime == "application/x-javascript", mime == "module/javascript":
		return CatJS
	case mime == "application/json", strings.HasSuffix(mime, "+json"):
		return CatJSON
	case strings.HasPrefix(mime, "font/"), mime == "application/font-woff",
		mime == "application/vnd.ms-fontobject":
		return CatFont
	case strings.HasPrefix(mime, "audio/"):
		return CatAudio
	case strings.HasPrefix(mime, "video/"):
		return CatVideo
	case mime == "text/plain", mime == "application/octet-stream",
		mime == "text/xml", mime == "application/xml", mime == "text/csv":
		return CatData
	default:
		return CatUnknown
	}
}
