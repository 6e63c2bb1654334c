package httpsem

import (
	"net/http"
	"testing"
	"time"
)

func TestParseCacheControl(t *testing.T) {
	d := ParseCacheControl("public, max-age=86400, stale-while-revalidate=60")
	if !d.Public || !d.HasMaxAge || d.MaxAge != 86400*time.Second || d.StaleWhileReval != time.Minute {
		t.Errorf("directives = %+v", d)
	}
	d = ParseCacheControl("no-store")
	if !d.NoStore {
		t.Error("no-store not parsed")
	}
	d = ParseCacheControl("private, max-age=0, must-revalidate")
	if !d.Private || !d.HasMaxAge || d.MaxAge != 0 || !d.MustRevalidate {
		t.Errorf("directives = %+v", d)
	}
	d = ParseCacheControl(`s-maxage="120", immutable`)
	if !d.HasSMaxAge || d.SMaxAge != 120*time.Second || !d.Immutable {
		t.Errorf("directives = %+v", d)
	}
	// Malformed values are ignored.
	d = ParseCacheControl("max-age=banana, no-cache")
	if d.HasMaxAge || !d.NoCache {
		t.Errorf("directives = %+v", d)
	}
}

func TestCacheable(t *testing.T) {
	cases := []struct {
		name string
		r    Response
		want bool
	}{
		{"plain 200 GET", Response{Method: "GET", Status: 200}, true},
		{"max-age", Response{Method: "GET", Status: 200, CacheControl: "public, max-age=86400"}, true},
		{"no-store", Response{Method: "GET", Status: 200, CacheControl: "no-store"}, false},
		{"no-cache", Response{Method: "GET", Status: 200, CacheControl: "no-cache"}, false},
		{"max-age=0", Response{Method: "GET", Status: 200, CacheControl: "private, max-age=0"}, false},
		{"s-maxage rescues max-age=0", Response{Method: "GET", Status: 200, CacheControl: "max-age=0, s-maxage=60"}, true},
		{"POST", Response{Method: "POST", Status: 200}, false},
		{"HEAD ok", Response{Method: "HEAD", Status: 200}, true},
		{"204", Response{Method: "GET", Status: 204}, true},
		{"500", Response{Method: "GET", Status: 500}, false},
		{"302", Response{Method: "GET", Status: 302}, false},
		{"301", Response{Method: "GET", Status: 301}, true},
		{"404", Response{Method: "GET", Status: 404}, true},
		{"pragma no-cache", Response{Method: "GET", Status: 200, Pragma: "no-cache"}, false},
		{"pragma ignored when CC present", Response{Method: "GET", Status: 200, Pragma: "no-cache", CacheControl: "max-age=60"}, true},
		{"private heuristic", Response{Method: "GET", Status: 200, CacheControl: "private"}, false},
		{"immutable", Response{Method: "GET", Status: 200, CacheControl: "immutable"}, true},
		{"expires 0", Response{Method: "GET", Status: 200, Expires: "0"}, false},
		{"future expires", Response{Method: "GET", Status: 200,
			Expires: time.Now().Add(time.Hour).UTC().Format(time.RFC1123), Date: time.Now().UTC().Format(time.RFC1123)}, true},
		{"past expires", Response{Method: "GET", Status: 200,
			Expires: "Mon, 02 Jan 2006 15:04:05 UTC", Date: "Mon, 02 Jan 2006 16:04:05 UTC"}, false},
	}
	for _, c := range cases {
		if got := Cacheable(c.r); got != c.want {
			t.Errorf("%s: Cacheable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFormatDate(t *testing.T) {
	cases := []struct {
		t    time.Time
		want string
	}{
		{time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC), "Sun, 01 Mar 2020 00:00:00 GMT"},
		{time.Date(1994, 11, 6, 8, 49, 37, 999, time.UTC), "Sun, 06 Nov 1994 08:49:37 GMT"},
		{time.Date(2020, 3, 12, 1, 2, 3, 0, time.FixedZone("X", 5*3600)), "Wed, 11 Mar 2020 20:02:03 GMT"},
		{time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), "Sat, 01 Jan 0000 00:00:00 GMT"},
		{time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), "Fri, 31 Dec 9999 23:59:59 GMT"},
	}
	for _, c := range cases {
		if got := FormatDate(c.t); got != c.want {
			t.Errorf("FormatDate(%v) = %q, want %q", c.t, got, c.want)
		}
		if back, ok := parseHTTPDate(FormatDate(c.t)); !ok || !back.Equal(c.t.Truncate(time.Second)) {
			t.Errorf("parseHTTPDate(FormatDate(%v)) = %v, %v", c.t, back, ok)
		}
	}
	// Outside 0–9999 the layout formatter takes over.
	for _, tt := range []time.Time{time.Date(-1, 5, 5, 0, 0, 0, 0, time.UTC), time.Date(12345, 5, 5, 0, 0, 0, 0, time.UTC)} {
		if got, want := FormatDate(tt), tt.Format(http.TimeFormat); got != want {
			t.Errorf("FormatDate(%v) = %q, want %q", tt, got, want)
		}
	}
	// AppendDate appends the same bytes after whatever dst holds, in
	// and out of the fixed-width range, without allocating when dst
	// has room.
	for _, c := range cases {
		dst := AppendDate([]byte("Date: "), c.t)
		if got := string(dst); got != "Date: "+c.want {
			t.Errorf("AppendDate(%v) = %q", c.t, got)
		}
	}
	far := time.Date(12345, 5, 5, 0, 0, 0, 0, time.UTC)
	if got := string(AppendDate([]byte("x"), far)); got != "x"+far.Format(http.TimeFormat) {
		t.Errorf("AppendDate(%v) = %q", far, got)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { AppendDate(buf, cases[0].t) }); n != 0 {
		t.Errorf("AppendDate allocates %v times into a buffer with room", n)
	}
}

// FuzzFormatDate holds FormatDate to time.Format with http.TimeFormat
// over instants in years 0–9999, viewed from arbitrary fixed zones.
func FuzzFormatDate(f *testing.F) {
	f.Add(int64(0), int64(0), int32(0))
	f.Add(time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC).Unix(), int64(999_999_999), int32(-8*3600))
	f.Add(int64(-1), int64(1), int32(14*3600))
	first := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	span := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - first
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int32) {
		sec = first + (sec%span+span)%span
		zone := time.FixedZone("Z", int(offset%(18*3600)))
		tt := time.Unix(sec, (nsec%1e9+1e9)%1e9).In(zone)
		if got, want := FormatDate(tt), tt.UTC().Format(http.TimeFormat); got != want {
			t.Fatalf("FormatDate(%v) = %q, want %q", tt, got, want)
		}
	})
}
