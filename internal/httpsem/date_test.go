package httpsem

import (
	"testing"
	"time"
)

// FuzzParseHTTPDate holds parseHTTPDate to time.ParseInLocation with
// the RFC 1123 layout in UTC: both accept the same strings, and on
// every accepted string they agree on the instant. The seeds straddle
// the IMF-fixdate fast path: its own output at the year bounds, strings
// of its exact shape that the layout parser still rejects or reads
// differently, and near misses that only the layout parser accepts.
func FuzzParseHTTPDate(f *testing.F) {
	for _, year := range []int{0, 1994, 2020, 9999} {
		f.Add(FormatDate(time.Date(year, 11, 6, 8, 49, 37, 0, time.UTC)))
	}
	for _, s := range []string{
		"Thu, 12 Mar 2020 09:00:00 UTC",
		"Thu, 12 Mar 2020 09:00:00 PST",
		"Thu, 12 Mar 2020 09:00:00 GMT+1",
		"thu, 12 mar 2020 09:00:00 GMT",
		"THU, 12 MAR 2020 09:00:00 GMT",
		"Thu, 12 Mar 2020 09:00:00 gmt",
		"Mon, 12 Mar 2020 09:00:00 GMT",   // wrong weekday
		"Thx, 12 Mar 2020 09:00:00 GMT",   // no weekday
		"Thu, 12 Mzr 2020 09:00:00 GMT",   // no month
		"Thu, 12 Mar 2020 24:00:00 GMT",   // hour out of range
		"Thu, 12 Mar 2020 23:59:60 GMT",   // leap second
		"Thu, 29 Feb 2001 00:00:00 GMT",   // not a leap year
		"Tue, 29 Feb 2000 00:00:00 GMT",   // a leap year
		"Thu, 29 Feb 1900 00:00:00 GMT",   // a century, not a leap year
		"Thu, 00 Mar 2020 09:00:00 GMT",   // day zero
		"Thu, 12 Mar 2020 09:00:00.5 GMT", // fractional seconds
		"Thu, 12 Mar 2020 9:00:00 GMT",    // one-digit hour, 28 bytes
		"Thu, 12 Mar 2020 09:00:00 GM",    // 28 bytes
		"Thu,  12 Mar 2020 09:00:00 GMT",  // 30 bytes, doubled space
		"Thu, 12 Mar 2020 09:00:00 GMT ",  // 30 bytes, trailing space
		"Thu, 12 Mar 2020 09:00:00 G\xffT",
		"Thu, 1a Mar 2020 09:00:00 GMT",
		"Thu, 12 Mar 2020 09:00:00 +0100",
		"0",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got, ok := parseHTTPDate(v)
		want, err := time.ParseInLocation(time.RFC1123, v, time.UTC)
		if ok != (err == nil) {
			t.Fatalf("parseHTTPDate(%q) ok = %v, time.ParseInLocation error = %v", v, ok, err)
		}
		if ok && !got.Equal(want) {
			t.Fatalf("parseHTTPDate(%q) = %v, time.ParseInLocation = %v", v, got, want)
		}
	})
}

// TestParseHTTPDateIgnoresLocalZone requires the answer for a zone name
// the RFC 1123 layout cannot resolve to be the same whatever the
// process's time zone: time.Parse would look "PST" up in time.Local
// and, under a Local that names it, shift the instant by eight hours.
// It swaps time.Local, so it must not run in parallel.
func TestParseHTTPDateIgnoresLocalZone(t *testing.T) {
	const (
		ims = "Mon, 02 Jan 2006 15:04:05 PST"
		lm  = "Mon, 02 Jan 2006 20:00:00 GMT"
	)
	saved := time.Local
	defer func() { time.Local = saved }()

	time.Local = time.UTC
	wantT, wantOK := parseHTTPDate(ims)
	wantNMS := NotModifiedSince(ims, lm)
	if !wantOK || !wantT.Equal(time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)) {
		t.Fatalf("under UTC: parseHTTPDate(%q) = %v, %v", ims, wantT, wantOK)
	}

	time.Local = time.FixedZone("PST", -8*3600)
	if got, ok := parseHTTPDate(ims); ok != wantOK || !got.Equal(wantT) {
		t.Errorf("under PST: parseHTTPDate(%q) = %v, %v; under UTC %v, %v", ims, got.UTC(), ok, wantT, wantOK)
	}
	if got := NotModifiedSince(ims, lm); got != wantNMS {
		t.Errorf("under PST: NotModifiedSince(%q, %q) = %v; under UTC %v", ims, lm, got, wantNMS)
	}
}

// TestDateAndFreshnessDoNotAllocate holds the warm path's per-response
// parses to zero allocations: reading back a FormatDate string, and
// ComputeFreshness on the responses webgen's origins serve, with and
// without an Age header and with explicit or heuristic freshness.
func TestDateAndFreshnessDoNotAllocate(t *testing.T) {
	date := FormatDate(time.Date(2020, 3, 12, 9, 30, 15, 0, time.UTC))
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := parseHTTPDate(date); !ok {
			t.Fatal("FormatDate output rejected")
		}
	}); n != 0 {
		t.Errorf("parseHTTPDate(%q): %v allocs/op, want 0", date, n)
	}

	base := Response{
		Method:       "GET",
		Status:       200,
		CacheControl: "public, max-age=3600",
		Date:         date,
		ETag:         `"0a1b2c3d-1f4"`,
		LastModified: FormatDate(time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)),
	}
	withAge := base
	withAge.Age = "120"
	heuristic := base
	heuristic.CacheControl = ""
	for _, c := range []struct {
		name string
		r    Response
	}{{"max-age", base}, {"max-age with Age", withAge}, {"heuristic", heuristic}} {
		if n := testing.AllocsPerRun(100, func() {
			if f := ComputeFreshness(c.r); !f.Storable || f.Lifetime <= 0 {
				t.Fatalf("%s: freshness %+v", c.name, f)
			}
		}); n != 0 {
			t.Errorf("%s: ComputeFreshness %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestUnixDaysMatchesTime holds the fast path's calendar arithmetic to
// the time package on every day of years 0 through 9999.
func TestUnixDaysMatchesTime(t *testing.T) {
	for d := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC); d.Year() < 10000; d = d.Add(24 * time.Hour) {
		y, m, day := d.Date()
		if got := unixDays(y, int(m), day) * 86400; got != d.Unix() {
			t.Fatalf("unixDays(%d, %d, %d) = %d days, want %d", y, m, day, got/86400, d.Unix()/86400)
		}
	}
}
