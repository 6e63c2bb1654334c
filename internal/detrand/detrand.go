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
// math/rand's does. The first 273 draws read only seeded words, so the
// source allocates the register (4.9 KB) only at draw 274; a generator
// that draws less, as most do, never has one.
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

// source is math/rand's rngSource with lazy seeding and no register
// until the stream needs one.
type source struct {
	tap, feed int
	x0        uint64 // the chain's start: the seed reduced mod 2³¹−1
	drawn     int    // draws since Seed, counted up to rngFeed
	vec       *[rngLen]int64
}

// Seed resets the source to the state math/rand's NewSource(seed)
// starts in. No word is built yet; each is built before it is first
// read. A register left by earlier draws is kept for reuse: draw 274
// and the 60 draws after it write each of its words before any draw
// reads that word.
func (s *source) Seed(seed int64) {
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
// vec[334−k] and vec[607−k], and writes their sum to vec[334−k]. For
// k ≤ 273 neither word has been written yet, so the draw is the sum of
// two seeded words and needs no register. Draw 274 is the first to read
// a written word (vec[333], from draw 1): it builds the register as
// draws 1–273 would have left it. From then on, draw k builds
// vec[334−k] until draw 334, after which every word exists.
func (s *source) Uint64() uint64 {
	if s.drawn < rngFeed {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngFeed-s.drawn) + s.word(rngLen-s.drawn))
		}
		if s.drawn == rngTap {
			s.fill()
		}
		s.drawn++
		s.vec[rngFeed-s.drawn] = s.word(rngFeed - s.drawn)
	}
	vec := s.vec // one load of the pointer for the two reads and the write
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := vec[s.feed] + vec[s.tap]
	vec[s.feed] = x
	return uint64(x)
}

// fill builds the register as the first 273 draws leave it: draw k
// wrote vec[334−k] and left the tap word vec[607−k] seeded. It sets tap
// and feed where draw 273 leaves them.
func (s *source) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for k := 1; k <= rngTap; k++ {
		t := s.word(rngLen - k)
		s.vec[rngLen-k] = t
		s.vec[rngFeed-k] = s.word(rngFeed-k) + t
	}
	s.tap, s.feed = rngLen-rngTap, rngFeed-rngTap
}
