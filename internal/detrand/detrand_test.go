package detrand

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// draw makes one call of the method sel picks on r and returns what it
// drew as bits. The methods cover every rand.Rand method the module
// calls, plus the rest of the Source-backed surface.
func draw(r *rand.Rand, sel byte) uint64 {
	switch sel % 16 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(1 + int(sel)))
	case 3:
		return uint64(r.Intn(1<<40 + int(sel)))
	case 4:
		return math.Float64bits(r.Float64())
	case 5:
		return math.Float64bits(r.NormFloat64())
	case 6:
		return math.Float64bits(r.ExpFloat64())
	case 7:
		return uint64(r.Uint32())
	case 8:
		return uint64(r.Int31n(1000))
	case 9:
		return uint64(r.Int63n(1<<50 + 3))
	case 10:
		return uint64(math.Float32bits(r.Float32()))
	case 11:
		p := r.Perm(5)
		return uint64(p[0] | p[1]<<4 | p[2]<<8 | p[3]<<12 | p[4]<<16)
	case 12:
		a := []int{0, 1, 2, 3, 4, 5, 6}
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return uint64(a[0] | a[3]<<4 | a[6]<<8)
	case 13:
		var b [5]byte
		r.Read(b[:])
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 | uint64(b[4])<<32
	case 14:
		return uint64(r.Int())
	default:
		return rand.NewZipf(r, 1.2, 1, 1000).Uint64()
	}
}

// compare draws n values through sels from New(seed) and from math/rand
// seeded alike, reseeding both with reseed at draw reseedAt (when
// reseedAt is in range), and reports the first divergence.
func compare(t *testing.T, seed int64, n int, sels []byte, reseedAt int, reseed int64) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if i == reseedAt {
			got.Seed(reseed)
			want.Seed(reseed)
		}
		sel := byte(i)
		if len(sels) > 0 {
			sel = sels[i%len(sels)]
		}
		if g, w := draw(got, sel), draw(want, sel); g != w {
			t.Fatalf("seed %d: draw %d (method %d) = %#x, math/rand gives %#x", seed, i, sel%16, g, w)
		}
	}
}

// TestSourceMatchesMathRand holds New to math/rand's stream on edge
// seeds: zero and the value it maps to, ±(2³¹−1) and its multiples
// (which also reduce to zero), and the int64 extremes. 2,000 mixed
// draws take more than 1,214 source steps, so the register wraps twice;
// each seed is also reseeded mid-stream, before and after the lazy
// phase ends and around draw 274, where the register is built.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = int64(int32max)
	seeds := []int64{
		0, 1, -1, 2, 42, 89482311, -89482311,
		m, -m, 2 * m, -2 * m, 3*m + 1, m - 1, m + 1, -m + 1,
		1 << 31, 1 << 40, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		0x51a7, 0x5d15 ^ 7, -8265016585212340021,
	}
	for _, seed := range seeds {
		compare(t, seed, 2000, nil, -1, 0)
		// Plain Int63 steps, to cover every lazy draw one by one.
		compare(t, seed, 1300, []byte{0}, -1, 0)
		for _, at := range []int{0, 3, 272, 273, 274, 275, 333, 334, 700} {
			compare(t, seed, 1500, nil, at, seed^0x5eed)
			compare(t, seed, 1500, nil, at, 0)
		}
	}
	for seed := int64(-100); seed < 200; seed++ {
		compare(t, seed*7919+seed*seed*104729, 400, nil, 150, seed)
	}
}

// TestSourceSeedsWithoutDrawing checks that a generator holds no
// register until it needs one: none through draw 273, one from draw
// 274 on. It then reseeds the source that has a register and holds the
// next 1,500 draws, which reuse it, to math/rand's stream.
func TestSourceSeedsWithoutDrawing(t *testing.T) {
	s := &source{}
	s.Seed(42)
	want := rand.NewSource(42).(rand.Source64)
	for k := 1; k <= 400; k++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d = %#x, math/rand gives %#x", k, g, w)
		}
		if has := s.vec != nil; has != (k > rngTap) {
			t.Fatalf("after draw %d: register allocated = %v", k, has)
		}
	}
	vec := s.vec
	for _, seed := range []int64{42, -7, 0} {
		s.Seed(seed)
		want.Seed(seed)
		for k := 1; k <= 1500; k++ {
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d: draw %d = %#x, math/rand gives %#x", seed, k, g, w)
			}
		}
		if s.vec != vec {
			t.Fatalf("reseed %d: register reallocated", seed)
		}
	}
}

// FuzzSourceMatchesMathRand compares New against math/rand for any
// seed, draw count, method sequence and mid-stream reseed.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(10), []byte{0, 1, 2}, uint16(5), int64(7))
	f.Add(int64(42), uint16(1300), []byte{0}, uint16(400), int64(-1))
	f.Add(int64(math.MinInt64), uint16(700), []byte{5, 4, 3}, uint16(334), int64(int32max))
	f.Add(int64(-int32max), uint16(2000), []byte{}, uint16(1), int64(89482311))
	f.Add(int64(7), uint16(600), []byte{0}, uint16(272), int64(8))
	f.Add(int64(7), uint16(600), []byte{1}, uint16(273), int64(8))
	f.Add(int64(-3), uint16(600), []byte{0}, uint16(274), int64(-3))
	f.Add(int64(1<<40), uint16(900), []byte{0, 4}, uint16(275), int64(0))
	f.Add(int64(99), uint16(2000), []byte{0}, uint16(500), int64(99))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, sels []byte, reseedAt uint16, reseed int64) {
		compare(t, seed, int(n%2500), sels, int(reseedAt), reseed)
	})
}

// BenchmarkSeedAndDraw builds a generator and makes n draws, on New
// and on math/rand, for the short streams most callers draw and for
// one that runs past the lazy phase.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, n := range []int{4, 100, 2000} {
		b.Run("detrand/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := New(int64(i))
				for j := 0; j < n; j++ {
					r.Int63()
				}
			}
		})
		b.Run("mathrand/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for j := 0; j < n; j++ {
					r.Int63()
				}
			}
		})
	}
}
