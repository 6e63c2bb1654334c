package httpsem

import (
	"regexp"
	"strings"
	"testing"
)

func TestETagMatch(t *testing.T) {
	cases := []struct {
		inm, etag string
		want      bool
	}{
		{`"abc"`, `"abc"`, true},
		{`"abc"`, `"abcd"`, false},
		{`*`, `"anything"`, true},
		{`*`, ``, false}, // no validator: nothing to match
		{`"x", "y", "abc"`, `"abc"`, true},
		{`"x","y"`, `"abc"`, false},
		// Weak comparison: W/ is ignored on either side (§2.3.2).
		{`W/"abc"`, `"abc"`, true},
		{`"abc"`, `W/"abc"`, true},
		{`W/"abc"`, `W/"abc"`, true},
		// Content-coding variants are distinct entity-tags: the gzip
		// representation's tag must not validate the identity one, and
		// vice versa — the Vary: Accept-Encoding contract hisparserve
		// relies on.
		{`"abc"`, `"abc-gzip"`, false},
		{`"abc-gzip"`, `"abc"`, false},
		{`"abc-gzip"`, `"abc-gzip"`, true},
		// Unquoted junk never matches a quoted tag.
		{`abc`, `"abc"`, false},
		// A comma inside the quotes is part of the tag (§2.3: etagc),
		// not a list separator.
		{`"a,b"`, `"a,b"`, true},
		{`"x", "a,b"`, `"a,b"`, true},
		{`W/"a,b"`, `"a,b"`, true},
		{`"a,b"`, `"a"`, false},
		{`"a,b"`, `"b"`, false},
		{`"a", "b"`, `"a,b"`, false},
		// List syntax: empty elements and OWS around commas are allowed;
		// a header that is not a list of entity-tags matches nothing.
		{`, "x" ,, "abc",`, `"abc"`, true},
		{"\t\"abc\" ", `"abc"`, true},
		{`"abc" "x"`, `"abc"`, false},
		{`"abc", x`, `"abc"`, false},
		{`"abc", "x`, `"abc"`, false},
		{`"abc", *`, `"abc"`, false},
	}
	for _, c := range cases {
		if got := ETagMatch(c.inm, c.etag); got != c.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", c.inm, c.etag, got, c.want)
		}
	}
}

func TestNotModifiedSince(t *testing.T) {
	const (
		older = "Thu, 12 Mar 2020 00:00:00 GMT"
		newer = "Thu, 19 Mar 2020 00:00:00 GMT"
	)
	cases := []struct {
		ims, lm string
		want    bool
	}{
		{newer, older, true},  // unchanged since the client's copy
		{older, older, true},  // exact match is unchanged
		{older, newer, false}, // modified after the client's copy
		{"garbage", older, false},
		{newer, "garbage", false},
		{"", older, false},
		{newer, "", false},
	}
	for _, c := range cases {
		if got := NotModifiedSince(c.ims, c.lm); got != c.want {
			t.Errorf("NotModifiedSince(%q, %q) = %v, want %v", c.ims, c.lm, got, c.want)
		}
	}
}

func TestCheckNotModifiedPrecedence(t *testing.T) {
	const (
		etag  = `"abc"`
		lm    = "Thu, 12 Mar 2020 00:00:00 GMT"
		later = "Thu, 19 Mar 2020 00:00:00 GMT"
	)
	// If-None-Match present and matching → 304 regardless of IMS.
	if !CheckNotModified(etag, "", etag, lm) {
		t.Error("matching If-None-Match should be not-modified")
	}
	// If-None-Match present but MISSING the tag → full response, even
	// when If-Modified-Since alone would have said 304 (§6: IMS ignored).
	if CheckNotModified(`"other"`, later, etag, lm) {
		t.Error("non-matching If-None-Match must win over a matching If-Modified-Since")
	}
	// No If-None-Match → If-Modified-Since decides.
	if !CheckNotModified("", later, etag, lm) {
		t.Error("matching If-Modified-Since should be not-modified")
	}
	if CheckNotModified("", "", etag, lm) {
		t.Error("unconditional request is never not-modified")
	}
}

// The If-None-Match grammar of RFC 7232 §3.2 and §2.3, with the list
// rule of RFC 7230 §7, over ASCII (see refETagMatch for obs-text):
//
//	If-None-Match = "*" / 1#entity-tag
//	entity-tag    = [ weak ] opaque-tag
//	weak          = %x57.2F ; "W/"
//	opaque-tag    = DQUOTE *etagc DQUOTE
//	etagc         = %x21 / %x23-7E / obs-text
//	1#element     = *( "," OWS ) element *( OWS "," [ OWS element ] )
var (
	refTag  = `(?:W/)?("[\x21\x23-\x7E]*")`
	refList = regexp.MustCompile(`^(?:,[ \t]*)*` + refTag + `(?:[ \t]*,(?:[ \t]*` + refTag + `)?)*$`)
	refTags = regexp.MustCompile(refTag)
)

// refETagMatch is ETagMatch written from the grammar: the header, its
// surrounding OWS trimmed, is "*" or must parse as a list of
// entity-tags, one of which weakly equals etag.
func refETagMatch(ifNoneMatch, etag string) bool {
	if etag == "" {
		return false
	}
	v := strings.Trim(ifNoneMatch, " \t")
	if v == "*" {
		return true
	}
	// obs-text (%x80-FF) is etagc; Go's regexp reads runes, so map each
	// such byte to another etagc byte, which keeps every offset.
	ascii := []byte(v)
	for i, c := range ascii {
		if c >= 0x80 {
			ascii[i] = '!'
		}
	}
	if !refList.Match(ascii) {
		return false
	}
	for _, m := range refTags.FindAllSubmatchIndex(ascii, -1) {
		if v[m[2]:m[3]] == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// FuzzETagMatch holds ETagMatch to the grammar's reference, and checks
// that it allocates nothing: the 304 path runs it on every
// revalidation.
func FuzzETagMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{`"abc"`, `"abc"`}, {`W/"a,b", "c"`, `"a,b"`}, {`*`, `"x"`}, {`, "x" ,, "y",`, `W/"y"`},
		{`"a" "b"`, `"a"`}, {`"a`, `"a`}, {"\"\x80\xff\"", "\"\x80\xff\""}, {`W/`, `"x"`}, {``, `""`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, ifNoneMatch, etag string) {
		got, want := ETagMatch(ifNoneMatch, etag), refETagMatch(ifNoneMatch, etag)
		if got != want {
			t.Fatalf("ETagMatch(%q, %q) = %v, the grammar says %v", ifNoneMatch, etag, got, want)
		}
		if n := testing.AllocsPerRun(1, func() { ETagMatch(ifNoneMatch, etag) }); n != 0 {
			t.Fatalf("ETagMatch(%q, %q) allocates %v times", ifNoneMatch, etag, n)
		}
	})
}
