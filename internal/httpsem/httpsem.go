// Package httpsem implements the HTTP caching semantics the study uses to
// count cacheable objects (§5.1): a practical subset of RFC 7234 keyed on
// request method, response status, and Cache-Control / Expires / Pragma
// headers — the same signal set the MDN "cacheable" definition the paper
// cites describes.
package httpsem

import (
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// cacheableStatus reports the response codes cacheable by default
// (RFC 7231 §6.1).
func cacheableStatus(code int) bool {
	switch code {
	case 200, 203, 204, 206, 300, 301, 404, 405, 410, 414, 501:
		return true
	}
	return false
}

// Directives is a parsed Cache-Control header.
type Directives struct {
	NoStore         bool
	NoCache         bool
	Private         bool
	Public          bool
	MaxAge          time.Duration
	HasMaxAge       bool
	SMaxAge         time.Duration
	HasSMaxAge      bool
	MustRevalidate  bool
	Immutable       bool
	StaleWhileReval time.Duration
}

// ParseCacheControl parses a Cache-Control header value. It walks the
// value once, directive by directive, without copying: each
// comma-separated directive is split at its first '=', its name and
// value are trimmed of white space, and the name is matched with ASCII
// case folded. Directive names are ASCII, so that matches the name
// lowercased whole; the browser's freshness check and the study's
// cacheability count both call it once per response.
func ParseCacheControl(v string) Directives {
	var d Directives
	for len(v) > 0 {
		end, eq := len(v), -1
		for i := 0; i < len(v); i++ {
			if c := v[i]; c == ',' {
				end = i
				break
			} else if c == '=' && eq < 0 {
				eq = i
			}
		}
		key, val := v[:end], ""
		if eq >= 0 {
			key, val = v[:eq], v[eq+1:end]
		}
		if end < len(v) {
			end++
		}
		v = v[end:]
		switch key = trimSpace(key); {
		case foldEq(key, "no-store"):
			d.NoStore = true
		case foldEq(key, "no-cache"):
			d.NoCache = true
		case foldEq(key, "private"):
			d.Private = true
		case foldEq(key, "public"):
			d.Public = true
		case foldEq(key, "must-revalidate"):
			d.MustRevalidate = true
		case foldEq(key, "immutable"):
			d.Immutable = true
		case foldEq(key, "max-age"):
			if secs, ok := directiveSeconds(val); ok {
				d.MaxAge = time.Duration(secs) * time.Second
				d.HasMaxAge = true
			}
		case foldEq(key, "s-maxage"):
			if secs, ok := directiveSeconds(val); ok {
				d.SMaxAge = time.Duration(secs) * time.Second
				d.HasSMaxAge = true
			}
		case foldEq(key, "stale-while-revalidate"):
			if secs, ok := directiveSeconds(val); ok {
				d.StaleWhileReval = time.Duration(secs) * time.Second
			}
		}
	}
	return d
}

// directiveSeconds reads a directive's delta-seconds value: trimmed of
// white space, then of any double quotes around it, then strconv.Atoi.
// A directive without a value has val "" and reads as no value.
func directiveSeconds(val string) (int, bool) {
	val = trimSpace(val)
	for len(val) > 0 && val[0] == '"' {
		val = val[1:]
	}
	for len(val) > 0 && val[len(val)-1] == '"' {
		val = val[:len(val)-1]
	}
	if val == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(val)
	return secs, err == nil
}

// trimSpace is strings.TrimSpace with the ASCII white space trimmed in
// place; only a non-ASCII byte left at either edge takes the Unicode
// path.
func trimSpace(s string) string {
	for len(s) > 0 && asciiSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && asciiSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && (s[0] >= utf8.RuneSelf || s[len(s)-1] >= utf8.RuneSelf) {
		return strings.TrimSpace(s)
	}
	return s
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// foldEq reports whether s equals lower, a lowercase ASCII name, with
// ASCII case folded. A non-ASCII byte never matches.
func foldEq(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// Response is the minimal response view the classifier and the browser
// cache need.
type Response struct {
	Method       string // request method
	Status       int
	CacheControl string
	Pragma       string
	Expires      string // raw Expires header
	Date         string // raw Date header
	Age          string // raw Age header (seconds spent in upstream caches)
	ETag         string // entity validator, verbatim (quotes included)
	LastModified string // raw Last-Modified header
}

// Cacheable reports whether the response may be stored by a shared or
// private cache, per the study's definition of a cacheable object.
func Cacheable(r Response) bool {
	if !cacheableMethod(r.Method) || !cacheableStatus(r.Status) {
		return false
	}
	d := ParseCacheControl(r.CacheControl)
	switch {
	case d.NoStore:
		return false
	case d.NoCache:
		// Storable but must revalidate every use; the study counts these
		// as non-cacheable since they cannot be served without a round
		// trip.
		return false
	case d.HasMaxAge && d.MaxAge <= 0 && !d.HasSMaxAge:
		return false
	case pragmaNoCache(r):
		return false
	}
	if d.HasMaxAge || d.HasSMaxAge || d.Public || d.Immutable {
		return true
	}
	if r.Expires != "" {
		exp, ok := parseHTTPDate(r.Expires)
		if !ok {
			// Historical servers send "0" or malformed dates: treat as
			// already expired.
			return false
		}
		if r.Date != "" {
			if dt, ok := parseHTTPDate(r.Date); ok {
				return exp.After(dt)
			}
		}
		// No usable Date reference. RFC 7234 would fall back to receipt
		// time, but a wall-clock read here would make the classification
		// of a recorded response depend on when the analysis runs. A
		// valid Expires without a Date still signals explicit freshness
		// intent, so count the response cacheable.
		return true
	}
	// Heuristic freshness (RFC 7234 §4.2.2): responses without explicit
	// freshness are cacheable by default for cacheable statuses.
	return !d.Private
}

// cacheableMethod reports a request method whose response may be
// cached: GET or HEAD in any case, or none recorded.
func cacheableMethod(m string) bool {
	return m == "" || strings.EqualFold(m, "GET") || strings.EqualFold(m, "HEAD")
}

// pragmaNoCache reports the HTTP/1.0 no-cache escape hatch: it only
// counts when no Cache-Control header overrides it.
func pragmaNoCache(r Response) bool {
	return r.CacheControl == "" && strings.Contains(strings.ToLower(r.Pragma), "no-cache")
}

// parseHTTPDate parses an HTTP date header. The study's servers emit
// RFC 1123 exclusively (the http.TimeFormat shape), so that is the one
// layout accepted; anything else is the malformed-date case callers
// treat as "already expired".
//
// The IMF-fixdate FormatDate writes ("Mon, 02 Jan 2006 15:04:05 GMT",
// 29 bytes) is read field by field, with no layout interpretation and
// no allocation. Every other input goes to time.ParseInLocation with
// the RFC 1123 layout in UTC, which is also the oracle for the fast
// path (FuzzParseHTTPDate): every string the fast path accepts, the
// layout parser accepts as the same instant. Anchoring to UTC rather
// than time.Local keeps a zone name the layout cannot resolve, such as
// "PST", from picking up the process's zone offset.
func parseHTTPDate(v string) (time.Time, bool) {
	if t, ok := parseIMFFixdate(v); ok {
		return t, true
	}
	t, err := time.ParseInLocation(time.RFC1123, v, time.UTC)
	return t, err == nil
}

// parseIMFFixdate reads v if it is exactly "Www, DD Mmm YYYY hh:mm:ss
// GMT" with in-range fields. Like time.Parse, it matches day and month
// names ASCII-case-insensitively and does not check the weekday
// against the date. It reports false for anything else, including
// strings time.Parse would still accept (a one-digit hour, fractional
// seconds, another zone), which parseHTTPDate hands to the layout
// parser.
func parseIMFFixdate(v string) (time.Time, bool) {
	if len(v) != 29 || v[3] != ',' || v[4] != ' ' || v[7] != ' ' || v[11] != ' ' ||
		v[16] != ' ' || v[19] != ':' || v[22] != ':' || v[25:] != " GMT" {
		return time.Time{}, false
	}
	if nameIndex(dayKeys, v[0:3]) < 0 {
		return time.Time{}, false
	}
	month := nameIndex(monthKeys, v[8:11]) + 1
	day, ok1 := get2(v[5:7])
	century, ok2 := get2(v[12:14])
	yy, ok3 := get2(v[14:16])
	hour, ok4 := get2(v[17:19])
	minute, ok5 := get2(v[20:22])
	sec, ok6 := get2(v[23:25])
	year := century*100 + yy
	if month == 0 || !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) ||
		hour > 23 || minute > 59 || sec > 59 || day < 1 || day > daysIn(month, year) {
		return time.Time{}, false
	}
	secs := unixDays(year, month, day)*86400 + int64(hour*3600+minute*60+sec)
	return time.Unix(secs, 0).UTC(), true
}

// unixDays returns the days from 1970-01-01 to year-month-day in the
// proleptic Gregorian calendar, for years 0 through 9999. It is Howard
// Hinnant's days_from_civil: years start in March, so the leap day
// ends one, and are shifted by one 400-year era to stay non-negative.
func unixDays(year, month, day int) int64 {
	y := year + 400
	if month <= 2 {
		y--
	}
	era, yoe := y/400, y%400
	doy := (153*((month+9)%12)+2)/5 + day - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era*146097+doe) - 719468 - 146097
}

const dayNames, monthNames = "SunMonTueWedThuFriSat", "JanFebMarAprMayJunJulAugSepOctNovDec"

// dayKeys and monthKeys are the names' fold3 keys, in order.
var dayKeys, monthKeys = foldNames(dayNames), foldNames(monthNames)

func foldNames(names string) []uint32 {
	keys := make([]uint32, len(names)/3)
	for i := range keys {
		keys[i] = fold3(names[3*i:])
	}
	return keys
}

// nameIndex returns the index of s's three-letter name in keys, or -1.
// It matches as time.Parse matches day and month names, ASCII
// case-insensitively: the names are letters only, and a byte c equals
// the letter n up to ASCII case exactly when c|0x20 == n|0x20.
func nameIndex(keys []uint32, s string) int {
	key := fold3(s)
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

// fold3 packs the first three bytes of s, each with bit 0x20 set.
func fold3(s string) uint32 {
	return uint32(s[0]|0x20)<<16 | uint32(s[1]|0x20)<<8 | uint32(s[2]|0x20)
}

// get2 reads two decimal digits.
func get2(s string) (int, bool) {
	if s[0] < '0' || s[0] > '9' || s[1] < '0' || s[1] > '9' {
		return 0, false
	}
	return int(s[0]-'0')*10 + int(s[1]-'0'), true
}

// daysIn returns the number of days in month of year (proleptic
// Gregorian, year 0 a leap year, as time.Date counts).
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// FormatDate renders t in UTC as an HTTP IMF-fixdate ("Mon, 02 Jan 2006
// 15:04:05 GMT", the http.TimeFormat shape parseHTTPDate reads back).
// It writes the fixed-width fields directly rather than interpreting a
// layout: every simulated response carries a Date header and every
// cacheable one a Last-Modified. A year outside 0–9999 has no
// four-digit form and is rendered by time.Format.
func FormatDate(t time.Time) string {
	var b [29]byte
	return string(AppendDate(b[:0], t))
}

// AppendDate appends FormatDate(t) to dst, for callers that cut many
// dates from one buffer.
func AppendDate(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, "Mon, 02 Jan 2006 15:04:05 GMT")
	}
	hour, minute, sec := t.Clock()
	n := len(dst)
	dst = append(dst, "Mon, 02 Jan 2006 15:04:05 GMT"...)
	b := dst[n:]
	wd, mo := 3*int(t.Weekday()), 3*(int(month)-1)
	copy(b[0:3], dayNames[wd:wd+3])
	put2(b[5:7], day)
	copy(b[8:11], monthNames[mo:mo+3])
	put2(b[12:14], year/100)
	put2(b[14:16], year%100)
	put2(b[17:19], hour)
	put2(b[20:22], minute)
	put2(b[23:25], sec)
	return dst
}

// put2 writes v in [0,99] as two decimal digits.
func put2(b []byte, v int) {
	b[0], b[1] = byte('0'+v/10), byte('0'+v%10)
}
