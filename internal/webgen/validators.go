package webgen

// Cache validators and freshness lifetimes for the warm-revisit study
// (the consequence of the §5.1 cacheability asymmetry). Everything here
// is derived from an FNV hash of the object's final URL rather than the
// page RNG: Build's draw sequence — and with it every seeded result the
// cold-load experiments pin down — is byte-identical to the engine
// before revisits existed.

import (
	"strconv"
	"time"

	"repro/internal/httpsem"
)

// validatorEpoch anchors Last-Modified times just before the simulated
// measurement window (which starts 2020-03-12).
var validatorEpoch = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// assignValidators stamps ETag, Last-Modified, and a freshness lifetime
// on every cacheable object. Dynamic (non-cacheable) responses get
// nothing: they cannot validate, so a revisit refetches them in full —
// which is exactly the asymmetry the warm study measures.
func (b *Builder) assignValidators() {
	a := &b.strs
	var buf [29]byte
	for _, o := range b.m.Objects {
		if !o.Cacheable {
			continue
		}
		h := fnv64(o.URL)
		o.MaxAgeSecs = maxAgeFor(o.Role, h)
		a.open(maxETag)
		a.addBytes(appendETag(buf[:0], uint32(h), o.Size))
		o.ETag = a.close()
		// Last modified up to ~90 days before the study window.
		age := time.Duration(1+h%(90*24*3600)) * time.Second
		a.open(len(buf))
		a.addBytes(httpsem.AppendDate(buf[:0], validatorEpoch.Add(-age)))
		o.LastModified = a.close()
		if o.ViaCDN != "" && o.MaxAgeSecs > 0 {
			// The edge copy has already aged: popular assets sit at
			// edges for a while before our fetch observes them.
			o.EdgeAgeSecs = int((h >> 17) % uint64(o.MaxAgeSecs/4+1))
		}
	}
}

// maxAgeFor buckets explicit freshness lifetimes by role, mirroring the
// wild: long-lived fingerprinted static assets, mid-lived images, and
// short-lived data endpoints. About one cacheable object in seven
// carries validators but no explicit lifetime — the heuristic-freshness
// population.
func maxAgeFor(r Role, h uint64) int {
	if h%7 == 0 {
		return 0
	}
	pick := (h >> 3) % 4
	switch r {
	case RoleCSS, RoleJS, RoleFont:
		return [...]int{300, 3600, 86400, 31536000}[pick]
	case RoleImage, RoleMedia:
		return [...]int{3600, 86400, 604800, 31536000}[pick]
	case RoleJSON, RoleData:
		return [...]int{60, 300, 600, 3600}[pick]
	default:
		return 86400
	}
}

// CacheControl returns the Cache-Control header the origin serves for
// this object; idx is the object's index in the page (it rotates the
// non-cacheable flavors seen in the wild). An empty return means no
// Cache-Control header at all: the heuristic-freshness case.
func (o *Object) CacheControl(idx int) string {
	if !o.Cacheable {
		return [...]string{"no-store", "no-cache", "private, max-age=0"}[idx%3]
	}
	switch o.MaxAgeSecs {
	// The lifetimes maxAgeFor assigns, spelled out: this runs on every
	// fetch of every cacheable object.
	case 60:
		return "public, max-age=60"
	case 300:
		return "public, max-age=300"
	case 600:
		return "public, max-age=600"
	case 3600:
		return "public, max-age=3600"
	case 86400:
		return "public, max-age=86400"
	case 604800:
		return "public, max-age=604800"
	case 31536000:
		return "public, max-age=31536000, immutable"
	}
	switch {
	case o.MaxAgeSecs <= 0:
		return ""
	case o.MaxAgeSecs >= 31536000:
		return "public, max-age=" + strconv.Itoa(o.MaxAgeSecs) + ", immutable"
	default:
		return "public, max-age=" + strconv.Itoa(o.MaxAgeSecs)
	}
}

// maxETag is the longest entity-tag appendETag writes: two quotes,
// eight digits, a dash and at most 17 bytes of size.
const maxETag = 28

// appendETag appends the quoted entity-tag "%08x-%x" of the URL hash's
// low 32 bits and the object size.
func appendETag(dst []byte, h uint32, size int64) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[h>>shift&0xf])
	}
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, size, 16)
	return append(dst, '"')
}
