package httpsem

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestPreferGzip(t *testing.T) {
	for _, c := range []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip;q=1.0, *;q=0.5", true},
		{"*", true},
		{"*;q=0", false},
		{"*;q=0, gzip", true},
		{"gzip;q=0", false},
		{"gzip; q=0", false},
		{"gzip;Q=0.000", false},
		{"identity, gzip;q=0", false},
		{"gzip;q=0, *", false},
		{"gzip;q=0.5", true},
		{"gzip;q=0.5, identity", false},
		{"identity;q=0.4, gzip;q=0.5", true},
		{"identity;q=0, gzip;q=0.001", true},
		{"x-gzip-not", false},
		{"gzipped", false},
		{"gzip;q=2", false},
		{"gzip;q=1.5", false},
		{"gzip;q=0.1234", false},
		{"gzip;level=9", false},
		{"gzip;q=", false},
		{",, gzip ,", true},
	} {
		if got := PreferGzip(c.accept); got != c.want {
			t.Errorf("PreferGzip(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

// parseAcceptEncoding returns the valid elements of an Accept-Encoding
// value in order, read with nextCoding as codingWeight reads them.
func parseAcceptEncoding(v string) []coding {
	var out []coding
	for v != "" {
		var c coding
		var ok bool
		c, ok, v = nextCoding(v)
		if ok {
			out = append(out, c)
		}
	}
	return out
}

var (
	tokenRE  = regexp.MustCompile("^[!#$%&'*+\\-.^_`|~0-9A-Za-z]+$")
	qvalueRE = regexp.MustCompile(`^(0(\.[0-9]{0,3})?|1(\.0{0,3})?)$`)
)

// referenceAcceptEncoding is parseAcceptEncoding written the plain way:
// split the list on commas and each element on semicolons, and check
// the parts against the RFC 9110 grammar with regular expressions.
func referenceAcceptEncoding(v string) []coding {
	var out []coding
	for _, el := range strings.Split(v, ",") {
		parts := strings.Split(el, ";")
		name := strings.Trim(parts[0], " \t")
		if !tokenRE.MatchString(name) || len(parts) > 2 {
			continue
		}
		c := coding{Name: name, Q: 1000}
		if len(parts) == 2 {
			w := strings.Trim(parts[1], " \t")
			if len(w) < 2 || !strings.EqualFold(w[:2], "q=") || !qvalueRE.MatchString(w[2:]) {
				continue
			}
			f, err := strconv.ParseFloat(w[2:], 64)
			if err != nil {
				continue
			}
			c.Q = int(f*1000 + 0.5)
		}
		out = append(out, c)
	}
	return out
}

func FuzzAcceptEncoding(f *testing.F) {
	for _, s := range []string{
		"", "gzip", "GZIP", "*", "*;q=0", "gzip;q=0", "gzip;q=0.5", "identity, gzip;q=0",
		"x-gzip-not", "deflate, gzip;q=1.0, *;q=0.5", "gzip;q=1.000", "gzip ; q=0.25 ,br",
		"gzip;q=0.1234", "gzip;level=9;q=1", "\tgzip\t;\tq=1\t", ",,", "gz\xffip",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got, want := parseAcceptEncoding(v), referenceAcceptEncoding(v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parseAcceptEncoding(%q) = %+v, reference %+v", v, got, want)
		}
		for _, c := range got {
			if c.Q < 0 || c.Q > 1000 {
				t.Fatalf("parseAcceptEncoding(%q): weight %d out of range", v, c.Q)
			}
		}
	})
}
