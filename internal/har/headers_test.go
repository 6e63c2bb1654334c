package har

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/detrand"
)

// TestScanHeadersMatchesHeaderValue holds the one-scan header view to
// Response.HeaderValue over random header lists: duplicate names,
// mixed case, empty values, absent headers and non-ASCII look-alikes.
// None of the eleven names holds a k, so the Kelvin sign (U+212A) can
// only ride in a decoy; the long s (U+017F) folds to s under
// strings.EqualFold and stands in for it in names that hold one.
func TestScanHeadersMatchesHeaderValue(t *testing.T) {
	names := []string{
		"Location", "Cache-Control", "Pragma", "Expires", "Date", "Age",
		"ETag", "Last-Modified", "Server", "Via", "X-Cache",
	}
	decoys := []string{
		"Content-Type", "X-Cache-Status", "Vía", "ſerver", "Expireſ", "Laſt-Modified",
		"Cache-Controⅼ", "Keep-Alive", "X-CacheK", "Dat", "Ag", "Locations",
		"", "X_Cache", "ETags", "Last_Modified",
	}
	get := func(h *KnownHeaders, name string) string {
		return map[string]string{
			"Location": h.Location, "Cache-Control": h.CacheControl, "Pragma": h.Pragma,
			"Expires": h.Expires, "Date": h.Date, "Age": h.Age, "ETag": h.ETag,
			"Last-Modified": h.LastModified, "Server": h.Server, "Via": h.Via, "X-Cache": h.XCache,
		}[name]
	}
	rng := detrand.New(3)
	// mixCase flips the case of random ASCII letters.
	mixCase := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			if ('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') && rng.Intn(2) == 0 {
				b[i] = c ^ 0x20
			}
		}
		return string(b)
	}
	dups := 0
	for iter := 0; iter < 4000; iter++ {
		var resp Response
		seen := map[string]bool{}
		for n := rng.Intn(16); n > 0; n-- {
			var name string
			if rng.Intn(4) == 0 {
				name = decoys[rng.Intn(len(decoys))]
			} else {
				name = names[rng.Intn(len(names))]
			}
			name = mixCase(name)
			value := ""
			if rng.Intn(5) != 0 {
				value = "v" + strconv.Itoa(rng.Intn(1000))
			}
			resp.Headers = append(resp.Headers, Header{Name: name, Value: value})
			if key := strings.ToLower(name); seen[key] {
				dups++
			} else {
				seen[key] = true
			}
		}
		h := ScanHeaders(resp.Headers)
		for _, name := range names {
			if got, want := get(&h, name), resp.HeaderValue(name); got != want {
				t.Fatalf("headers %+v: view %s = %q, HeaderValue = %q", resp.Headers, name, got, want)
			}
		}
	}
	if dups == 0 {
		t.Fatal("no header list repeated a name")
	}
}

// TestScanHeadersFirstMatchWins pins the cases the random lists hit
// only by chance: the first of two case variants wins even when its
// value is empty, and a look-alike name that strings.EqualFold would
// accept matches nothing.
func TestScanHeadersFirstMatchWins(t *testing.T) {
	h := ScanHeaders([]Header{
		{Name: "etag", Value: ""},
		{Name: "ETag", Value: `"b"`},
		{Name: "ſerver", Value: "lookalike"},
		{Name: "SERVER", Value: "nginx"},
		{Name: "age", Value: "7"},
		{Name: "Age", Value: "9"},
	})
	if h.ETag != "" || h.Server != "nginx" || h.Age != "7" {
		t.Fatalf("ScanHeaders = %+v", h)
	}
}
