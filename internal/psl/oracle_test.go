package psl

import (
	"strings"
	"testing"
)

// oraclePublicSuffix and oracleETLDPlusOne are the label-splitting
// versions PublicSuffix and ETLDPlusOne replaced; FuzzETLDPlusOne holds
// the substring walk to them.
func oraclePublicSuffix(l *List, host string) string {
	host = normalizeHost(host)
	if host == "" {
		return ""
	}
	labels := strings.Split(host, ".")
	for i := 0; i < len(labels); i++ {
		candidate := strings.Join(labels[i:], ".")
		if l.exact[candidate] {
			return candidate
		}
		if i+1 < len(labels) {
			if l.wildcard[strings.Join(labels[i+1:], ".")] {
				return candidate
			}
		}
	}
	return labels[len(labels)-1]
}

func oracleETLDPlusOne(l *List, host string) string {
	host = normalizeHost(host)
	if host == "" {
		return ""
	}
	suffix := oraclePublicSuffix(l, host)
	if host == suffix {
		return ""
	}
	rest := strings.TrimSuffix(host, "."+suffix)
	if rest == host {
		return ""
	}
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest + "." + suffix
}

func FuzzETLDPlusOne(f *testing.F) {
	for _, h := range []string{
		"example.com", "www.example.com", "news.bbc.co.uk", "foo.bar.ck", "bar.ck",
		"Example.COM.", "a..co.uk", ".com", "com.", "co.uk..", "x.y:8080", "[::1]:80",
		"static.shop-example.co.uk", "t3.adnet.io", "cdn.fastcache.net", "..", ".",
	} {
		f.Add(h)
	}
	l := Default()
	f.Fuzz(func(t *testing.T, host string) {
		if got, want := l.PublicSuffix(host), oraclePublicSuffix(l, host); got != want {
			t.Fatalf("PublicSuffix(%q) = %q, oracle %q", host, got, want)
		}
		if got, want := l.ETLDPlusOne(host), oracleETLDPlusOne(l, host); got != want {
			t.Fatalf("ETLDPlusOne(%q) = %q, oracle %q", host, got, want)
		}
	})
}
