package httpsem

// Content-coding negotiation (RFC 9110 §12.5.3): the Accept-Encoding
// request header lists content codings, each with an optional weight
// from 0 to 1, and "*" stands for every coding not listed by name. A
// weight of 0 means "not acceptable".

import "strings"

// coding is one valid element of an Accept-Encoding value: a content
// coding (or "*"), as written, and its weight in thousandths (0–1000).
type coding struct {
	Name string
	Q    int
}

// nextCoding parses the first element of the list v and returns the
// rest of the list after its comma. An element is a token, optionally
// followed by one ";q=" weight of at most three decimals; anything
// else, such as a malformed weight or another parameter, makes the
// element invalid (ok is false), and so does an empty element.
func nextCoding(v string) (c coding, ok bool, rest string) {
	el, rest, _ := strings.Cut(v, ",")
	name, weight, weighted := strings.Cut(el, ";")
	c = coding{Name: trimOWS(name), Q: 1000}
	if !isToken(c.Name) {
		return c, false, rest
	}
	if weighted {
		w := trimOWS(weight)
		if len(w) < 2 || w[0]|0x20 != 'q' || w[1] != '=' {
			return c, false, rest
		}
		if c.Q, ok = parseQValue(w[2:]); !ok {
			return c, false, rest
		}
	}
	return c, true, rest
}

// parseQValue reads a qvalue, "0" or "1" with up to three decimals
// ("1" allows only zeros), as thousandths.
func parseQValue(s string) (int, bool) {
	if s == "" || (s[0] != '0' && s[0] != '1') {
		return 0, false
	}
	q := int(s[0]-'0') * 1000
	if len(s) == 1 {
		return q, true
	}
	frac := s[2:]
	if s[1] != '.' || len(frac) > 3 {
		return 0, false
	}
	for i, scale := 0, 100; i < len(frac); i, scale = i+1, scale/10 {
		d := frac[i]
		if d < '0' || d > '9' || (q == 1000 && d != '0') {
			return 0, false
		}
		q += int(d-'0') * scale
	}
	return q, true
}

// trimOWS strips the optional white space (spaces and tabs) around a
// list element or parameter.
func trimOWS(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// isToken reports whether s is a non-empty RFC 9110 token.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' {
			continue
		}
		if !strings.ContainsRune("!#$%&'*+-.^_`|~", rune(c)) {
			return false
		}
	}
	return true
}

// codingWeight returns the weight an Accept-Encoding value gives the
// content coding name: that of the first element naming it (case-insensitively;
// "x-gzip" names gzip, RFC 9110 §8.4.1.3), else that of the first "*".
// listed is false when neither appears.
func codingWeight(v, name string) (q int, listed bool) {
	star := -1
	for v != "" {
		var c coding
		var ok bool
		c, ok, v = nextCoding(v)
		switch {
		case !ok:
		case strings.EqualFold(c.Name, name) || name == "gzip" && strings.EqualFold(c.Name, "x-gzip"):
			return c.Q, true
		case c.Name == "*" && star < 0:
			star = c.Q
		}
	}
	return max(star, 0), star >= 0
}

// PreferGzip reports whether a response to a request carrying the
// Accept-Encoding value v should be gzip-coded rather than sent as is:
// gzip must be listed (by name or through "*") with a nonzero weight,
// and at least the weight of identity when identity is listed. An absent
// or empty header asks for identity.
func PreferGzip(v string) bool {
	gz, ok := codingWeight(v, "gzip")
	if !ok || gz == 0 {
		return false
	}
	id, ok := codingWeight(v, "identity")
	return !ok || gz >= id
}
