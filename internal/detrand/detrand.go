// Package detrand builds the simulation's seeded generators. New(seed)
// draws exactly the stream a math/rand generator built from
// NewSource(seed) draws, for every method and every seed, but seeds
// lazily: it computes a state word only when the stream first reads it.
//
// math/rand's source is an additive lagged-Fibonacci register of 607
// words. Seeding fills all of them from a Park–Miller chain,
// x ← 48271·x mod (2³¹−1), run for 1,841 steps. That costs about 10 µs
// per generator, and most generators in the simulation are built to
// draw two to five values. Step j of the chain is x₀·48271ʲ mod (2³¹−1),
// so a table of powers jumps straight to the three steps a word needs.
// The register's read order is fixed, so each word is built on the draw
// that first reads it, and from draw 334 on the source runs exactly as
// math/rand's does.
package detrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // the feed index before the first draw
	int32max = 1<<31 - 1
	rngMask  = 1<<63 - 1
)

// seedPow[k] is 48271^(21+k) mod (2³¹−1). Seeding discards 20 steps of
// the chain, then word i takes steps 21+3i, 22+3i and 23+3i.
var seedPow = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for i := 0; i < 21; i++ {
		x = x * 48271 % int32max
	}
	for k := range p {
		p[k] = x
		x = x * 48271 % int32max
	}
	return p
}()

// New returns a generator whose draws equal those of a math/rand
// generator built from NewSource(seed), including after a later Seed
// call.
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's rngSource with lazy seeding.
type source struct {
	tap, feed int
	x0        uint64 // the chain's start: the seed reduced mod 2³¹−1
	drawn     int    // draws since Seed, counted up to rngFeed
	vec       [rngLen]int64
}

// Seed resets the source to the state math/rand's NewSource(seed)
// starts in. No word is built yet; each is built before it is first
// read.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngFeed
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.drawn = 0
}

// word returns the value seeding stores in vec[i].
func (s *source) word(i int) int64 {
	p := seedPow[3*i : 3*i+3]
	u := int64(s.x0*p[0]%int32max) << 40
	u ^= int64(s.x0*p[1]%int32max) << 20
	u ^= int64(s.x0 * p[2] % int32max)
	return u ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer. Draw k (1-based) reads
// vec[334−k] and vec[607−k]; for k > 273 the second is the word draw
// k−273 wrote. So draw k builds vec[334−k], and for k ≤ 273 also
// vec[607−k], and after draw 334 every word exists.
func (s *source) Uint64() uint64 {
	if s.drawn < rngFeed {
		s.drawn++
		s.vec[rngFeed-s.drawn] = s.word(rngFeed - s.drawn)
		if s.drawn <= rngTap {
			s.vec[rngLen-s.drawn] = s.word(rngLen - s.drawn)
		}
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
