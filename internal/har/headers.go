package har

// KnownHeaders holds the response header values the study reads, found
// in one scan of a header list: the measure pass reads Location,
// Cache-Control, Pragma, Expires, Date, Server, Via and X-Cache, and
// the browser cache reads Cache-Control, Pragma, Expires, Date, Age,
// ETag and Last-Modified. Each field holds what Response.HeaderValue
// returns for its name: the value of the first header whose name
// matches ASCII-case-insensitively, or "" when none does.
type KnownHeaders struct {
	Location, CacheControl, Pragma, Expires, Date, Age string
	ETag, LastModified, Server, Via, XCache            string
}

// Indexes of the KnownHeaders fields in ScanHeaders' scratch array.
const (
	hVia = iota
	hAge
	hDate
	hETag
	hServer
	hPragma
	hXCache
	hExpires
	hLocation
	hCacheControl
	hLastModified
	nKnown
)

// ScanHeaders reads every field of KnownHeaders from hs in one pass.
// Names are told apart by length first, and the canonical spelling,
// the one every simulated server writes, is tried before the
// case-insensitive comparison, so most headers cost one or two string
// comparisons. Values go to a local array, not through pointers into
// the result, so the stores need no write barrier.
func ScanHeaders(hs []Header) KnownHeaders {
	var v [nKnown]string
	var seen uint16
	for i := range hs {
		name := hs[i].Name
		k := -1
		switch len(name) {
		case 3:
			if name == "Via" || lowerEq(name, "via") {
				k = hVia
			} else if name == "Age" || lowerEq(name, "age") {
				k = hAge
			}
		case 4:
			if name == "Date" || lowerEq(name, "date") {
				k = hDate
			} else if name == "ETag" || lowerEq(name, "etag") {
				k = hETag
			}
		case 6:
			if name == "Server" || lowerEq(name, "server") {
				k = hServer
			} else if name == "Pragma" || lowerEq(name, "pragma") {
				k = hPragma
			}
		case 7:
			if name == "X-Cache" || lowerEq(name, "x-cache") {
				k = hXCache
			} else if name == "Expires" || lowerEq(name, "expires") {
				k = hExpires
			}
		case 8:
			if name == "Location" || lowerEq(name, "location") {
				k = hLocation
			}
		case 13:
			if name == "Cache-Control" || lowerEq(name, "cache-control") {
				k = hCacheControl
			} else if name == "Last-Modified" || lowerEq(name, "last-modified") {
				k = hLastModified
			}
		}
		if k >= 0 && seen&(1<<k) == 0 {
			seen |= 1 << k
			v[k] = hs[i].Value
		}
	}
	return KnownHeaders{
		Location: v[hLocation], CacheControl: v[hCacheControl], Pragma: v[hPragma],
		Expires: v[hExpires], Date: v[hDate], Age: v[hAge], ETag: v[hETag],
		LastModified: v[hLastModified], Server: v[hServer], Via: v[hVia], XCache: v[hXCache],
	}
}

// lowerEq reports whether s equals the lowercase ASCII name lower when
// s's ASCII letters are lowercased, the header-name match HeaderValue
// makes. The lengths are equal.
func lowerEq(s, lower string) bool {
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
