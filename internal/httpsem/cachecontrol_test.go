package httpsem_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpsem"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// splitParseCacheControl is the strings.Split parser ParseCacheControl
// replaced, kept as the oracle: it lowercases and trims each
// comma-separated part on its own.
func splitParseCacheControl(v string) httpsem.Directives {
	var d httpsem.Directives
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		val = strings.Trim(strings.TrimSpace(val), `"`)
		switch key {
		case "no-store":
			d.NoStore = true
		case "no-cache":
			d.NoCache = true
		case "private":
			d.Private = true
		case "public":
			d.Public = true
		case "must-revalidate":
			d.MustRevalidate = true
		case "immutable":
			d.Immutable = true
		case "max-age":
			if hasVal {
				if secs, err := strconv.Atoi(val); err == nil {
					d.MaxAge = time.Duration(secs) * time.Second
					d.HasMaxAge = true
				}
			}
		case "s-maxage":
			if hasVal {
				if secs, err := strconv.Atoi(val); err == nil {
					d.SMaxAge = time.Duration(secs) * time.Second
					d.HasSMaxAge = true
				}
			}
		case "stale-while-revalidate":
			if hasVal {
				if secs, err := strconv.Atoi(val); err == nil {
					d.StaleWhileReval = time.Duration(secs) * time.Second
				}
			}
		}
	}
	return d
}

// webgenCacheControls returns every distinct Cache-Control value a small
// generated web serves, in first-seen order.
func webgenCacheControls(tb testing.TB) []string {
	tb.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 5, Size: 200})
	entries := u.Top(20)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 5, Sites: seeds})
	seen := map[string]bool{}
	var out []string
	for _, s := range web.Sites {
		for k := 0; k <= 3 && k <= s.PoolSize(); k++ {
			for idx, o := range s.PageAt(k).Build().Objects {
				if cc := o.CacheControl(idx); !seen[cc] {
					seen[cc] = true
					out = append(out, cc)
				}
			}
		}
	}
	return out
}

// FuzzParseCacheControl holds ParseCacheControl to the strings.Split
// oracle on arbitrary header values: a recorded HAR's Cache-Control is
// outside input. The seeds, which every plain test run checks, include
// every value the study's origins serve, and names and values whose
// case, quotes or white space only the oracle's Unicode lowercasing and
// trimming settle.
func FuzzParseCacheControl(f *testing.F) {
	ccs := webgenCacheControls(f)
	if len(ccs) < 8 {
		f.Fatalf("only %d distinct Cache-Control values: %q", len(ccs), ccs)
	}
	for _, v := range ccs {
		f.Add(v)
	}
	for _, v := range []string{
		"", ",", ",,", " , ", "\t", " \t ,\t",
		`max-age="60"`, `s-maxage="120", immutable`, `max-age="`, `"max-age=5"`,
		"max-age=1, max-age=2", "no-cache,no-cache", "public,,public",
		"Max-Age=30, PUBLIC", "max-age = 7 ", "max-age=banana, no-cache",
		"stale-while-revalidate=60", "max-age=-1", "max-age=99999999999999999999",
		"no-store ", "Keep, private", "max-age=\xff, no-store",
		// Upper-case, quoted and space-padded directives, and white
		// space and case only Unicode knows.
		"MAX-AGE=600, NO-CACHE", "No-Store, Must-Revalidate", "S-MAXAGE=\"30\", IMMUTABLE",
		`  max-age = "60"  , public`, "\tprivate\t,\r\nmax-age=\v5\f", `max-age=""60""`, `max-age="6"0"`,
		"max-age=+7", "max-age=\u00a09\u00a0", "\u3000no-cache\u2029", "\u0085public",
		"\u017f-maxage=5", "max-\u212aage=5", "MAX-AGE\u00a0=\u20288", "max-age=\xc2",
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := httpsem.ParseCacheControl(v), splitParseCacheControl(v); got != want {
			t.Fatalf("ParseCacheControl(%q) = %+v, want %+v", v, got, want)
		}
	})
}
