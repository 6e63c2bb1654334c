package webgen

import (
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/detrand"
)

// subSeed derives a stable sub-seed from a base seed and string/int parts,
// so every site, page, and week gets an independent deterministic RNG.
func subSeed(base int64, parts ...interface{}) int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(base))
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			h.Write([]byte(v))
			h.Write([]byte{0})
		case int:
			put(uint64(v))
		case int64:
			put(uint64(v))
		case uint64:
			put(v)
		default:
			panic("webgen: unsupported seed part type")
		}
	}
	return int64(h.Sum64())
}

// FNV-1a 64-bit constants, inlined so the typed sub-seed fast paths
// below hash without the hash.Hash64 interface or boxed variadic parts.
// TestSubSeedFastPaths pins them bit-identical to subSeed.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64 to the k-th power, mod 2^64.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnv64aU64 folds v's 8 little-endian bytes into h, matching subSeed's
// put(). A zero byte's XOR is a no-op, so once only zero bytes remain —
// the high bytes of a small index or week — their multiplies collapse
// into one by a power of the prime.
func fnv64aU64(h, v uint64) uint64 {
	n := 0
	for ; v != 0; v >>= 8 {
		h ^= v & 0xff
		h *= fnvPrime64
		n++
	}
	return h * fnvPrimePow[8-n]
}

// fnv64aString folds s and subSeed's {0} terminator into h.
func fnv64aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Terminator byte 0: the XOR is a no-op, the multiply is not.
	h *= fnvPrime64
	return h
}

// keyPrefix is the FNV state subSeed reaches after its base and key
// parts; the parts after them fold on from there.
func keyPrefix(base int64, key string) uint64 {
	return fnv64aString(fnv64aU64(fnvOffset64, uint64(base)), key)
}

// subSeedKey is subSeed(base, key) without the variadic boxing —
// bit-identical result, zero allocations.
func subSeedKey(base int64, key string) int64 {
	return int64(keyPrefix(base, key))
}

// subSeedKeyIdx is subSeed(base, key, idx) without the variadic boxing.
func subSeedKeyIdx(base int64, key string, idx int) int64 {
	return int64(fnv64aU64(keyPrefix(base, key), uint64(idx)))
}

// rngForKey is rngFor(base, key) on the typed fast path.
func rngForKey(base int64, key string) *rand.Rand {
	return detrand.New(subSeedKey(base, key))
}

// rngForKeyIdx is rngFor(base, key, idx) on the typed fast path.
func rngForKeyIdx(base int64, key string, idx int) *rand.Rand {
	return detrand.New(subSeedKeyIdx(base, key, idx))
}

// logNormal draws a lognormal sample with the given median and sigma of
// the underlying normal.
func logNormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// clamp01 limits x to [0,1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// lerp linearly interpolates a→b by t in [0,1].
func lerp(a, b, t float64) float64 { return a + (b-a)*clamp01(t) }

// invPhi is the inverse standard normal CDF (Acklam's approximation),
// used to convert "fraction of sites where landing exceeds internal"
// targets into lognormal-ratio means.
func invPhi(p float64) float64 {
	if p <= 0 {
		return -8
	}
	if p >= 1 {
		return 8
	}
	// Coefficients for Acklam's rational approximation.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var q, r float64
	switch {
	case p < plow:
		q = math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q = p - 0.5
		r = q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// noise01KeyIdx is noise01(base, key, idx) on the typed fast path.
func noise01KeyIdx(base int64, key string, idx int) float64 {
	return finalize01(uint64(subSeedKeyIdx(base, key, idx)))
}

// finalize01 maps a sub-seed to [0,1) with an xorshift finalizer.
func finalize01(s uint64) float64 {
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	return float64(s>>11) / float64(1<<53)
}

// normPrefixes holds the FNV states the four uniforms of normNoise(base,
// key, idx, week) start from: uniform i hashes base + i·1,000,003, then
// key. Folding them once serves every (idx, week) of that key.
type normPrefixes [4]uint64

func newNormPrefixes(base int64, key string) normPrefixes {
	var p normPrefixes
	for i := range p {
		p[i] = keyPrefix(base+int64(i)*1_000_003, key)
	}
	return p
}

// at returns a deterministic standard-normal-ish value keyed by (idx,
// week): the sum of four uniforms (Irwin–Hall), standardized.
// TestSubSeedFastPaths pins it bit-identical to the variadic normNoise.
func (p *normPrefixes) at(idx, week int) float64 {
	u := 0.0
	for _, h := range p {
		u += finalize01(fnv64aU64(fnv64aU64(h, uint64(idx)), uint64(week)))
	}
	// Irwin–Hall(4): mean 2, var 1/3 → standardize.
	return (u - 2) / math.Sqrt(1.0/3.0)
}
