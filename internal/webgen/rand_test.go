package webgen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/detrand"
)

// rngFor, noise01 and normNoise are the variadic originals of the typed
// fast paths, kept here as their oracles.

// rngFor returns a fresh deterministic RNG for the given key parts.
func rngFor(base int64, parts ...interface{}) *rand.Rand {
	return detrand.New(subSeed(base, parts...))
}

// noise01 returns a deterministic pseudo-random float in [0,1) keyed by
// the parts, without allocating an RNG.
func noise01(base int64, parts ...interface{}) float64 {
	return finalize01(uint64(subSeed(base, parts...)))
}

// normNoise returns a deterministic standard-normal-ish value keyed by
// the parts (sum of 4 uniforms, Irwin-Hall approximation).
func normNoise(base int64, parts ...interface{}) float64 {
	u := 0.0
	for i := 0; i < 4; i++ {
		u += noise01(base+int64(i)*1_000_003, parts...)
	}
	// Irwin–Hall(4): mean 2, var 1/3 → standardize.
	return (u - 2) / math.Sqrt(1.0/3.0)
}

// visitWeightOracle is Page.VisitWeight's formula on the variadic draws.
func visitWeightOracle(s *Site, idx int) float64 {
	week := s.web.Week
	base := math.Pow(1+noise01(s.seed, "basepop", idx)*float64(s.PoolSize()), -0.9)
	sigma := 0.5
	switch s.Category {
	case CatNews, CatSports:
		sigma = 1.3
	case CatSocial:
		sigma = 1.1
	case CatEntertainment:
		sigma = 0.8
	}
	drift := math.Exp(normNoise(s.seed, "drift", idx, week) * sigma)
	recency := 1.0
	if f := s.freshPerWeek(); f > 3 {
		born := 0
		if idx > s.poolSize {
			born = 1 + (idx-s.poolSize-1)/f
		}
		age := float64(week - born)
		if age < 0 {
			age = 0
		}
		recency = math.Exp(-0.5*age) + 0.05
	}
	return base * drift * recency
}

// TestSubSeedFastPaths pins the typed sub-seed fast paths bit-identical
// to the variadic originals: every generated corpus depends on these
// streams, so a divergence here silently rewrites the whole web.
func TestSubSeedFastPaths(t *testing.T) {
	bases := []int64{0, 1, -1, 42, 1 << 40, -(1 << 52)}
	keys := []string{"", "page-model", "trackers", "mixed", "a:b/c"}
	// Indexes of every byte width, and ones with zero bytes below a
	// nonzero one: fnv64aU64 collapses only the trailing zero bytes.
	idxs := []int{0, 1, 7, 255, 256, 1000, 1 << 24, 1<<40 + 5, 1<<56 - 1, -3}
	for _, base := range bases {
		for _, key := range keys {
			if got, want := subSeedKey(base, key), subSeed(base, key); got != want {
				t.Errorf("subSeedKey(%d, %q) = %d, want %d", base, key, got, want)
			}
			for _, idx := range idxs {
				if got, want := subSeedKeyIdx(base, key, idx), subSeed(base, key, idx); got != want {
					t.Errorf("subSeedKeyIdx(%d, %q, %d) = %d, want %d", base, key, idx, got, want)
				}
				if got, want := noise01KeyIdx(base, key, idx), noise01(base, key, idx); got != want {
					t.Errorf("noise01KeyIdx(%d, %q, %d) = %v, want %v", base, key, idx, got, want)
				}
				prefixes := newNormPrefixes(base, key)
				for _, week := range []int{0, 1, 3, 52, -2} {
					if got, want := prefixes.at(idx, week), normNoise(base, key, idx, week); got != want {
						t.Errorf("normPrefixes(%d, %q).at(%d, %d) = %v, normNoise %v", base, key, idx, week, got, want)
					}
				}
			}
		}
	}

	// The visit weigher folds the "basepop" and "drift" prefixes once per
	// site and memoizes the recency boost by page age. Every pool page of
	// every category, fresh pages of news-like sites included, must get
	// the weight the variadic draws give, whichever order pages are
	// weighed in.
	fresh := 0
	for week := 0; week <= 3; week++ {
		for _, s := range categoryWebAt(week).Sites {
			asc, desc := s.visitWeigher(), s.visitWeigher()
			n := s.PoolSize()
			for idx := 1; idx <= n; idx++ {
				want := visitWeightOracle(s, idx)
				if got := asc.weight(idx); got != want {
					t.Fatalf("week %d %s: weigher(%d) = %v, oracle %v", week, s.Category, idx, got, want)
				}
				if got := desc.weight(n + 1 - idx); got != visitWeightOracle(s, n+1-idx) {
					t.Fatalf("week %d %s: weigher(%d) in descending order = %v, oracle %v", week, s.Category, n+1-idx, got, visitWeightOracle(s, n+1-idx))
				}
				if got := s.PageAt(idx).VisitWeight(); got != want {
					t.Fatalf("week %d %s: VisitWeight(%d) = %v, oracle %v", week, s.Category, idx, got, want)
				}
				if s.freshPerWeek() > 3 && s.bornWeek(idx) > 0 {
					fresh++
				}
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no fresh page of a news-like site was weighed")
	}

	// The RNG constructors wrap the same seeds: first draws must agree.
	for _, base := range bases {
		a, b := rngForKey(base, "trackers"), rngFor(base, "trackers")
		if a.Int63() != b.Int63() {
			t.Errorf("rngForKey(%d) draw diverged from rngFor", base)
		}
		c, d := rngForKeyIdx(base, "page-model", 3), rngFor(base, "page-model", 3)
		if c.Int63() != d.Int63() {
			t.Errorf("rngForKeyIdx(%d) draw diverged from rngFor", base)
		}
	}
}

// zipfIndex is the per-draw zipf sampler newZipf replaced: it recomputes
// the draw's invariants on every call. sampleDistinctPerDraw is
// sampleDistinct over it; both are kept as oracles.
func zipfIndex(rng *rand.Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	u := rng.Float64()
	var x float64
	if math.Abs(s-1) < 1e-9 {
		x = math.Exp(u * math.Log(float64(n)))
	} else {
		t := math.Pow(float64(n), 1-s)
		x = math.Pow(u*(t-1)+1, 1/(1-s))
	}
	idx := int(x) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func sampleDistinctPerDraw(rng *rand.Rand, n, k int, s float64) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for attempts := 0; len(out) < k && attempts < 40*k+100; attempts++ {
		idx := zipfIndex(rng, n, s)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	for i := 0; len(out) < k && i < n; i++ {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// TestZipfMatchesPerDrawFormula holds sampleDistinct, which draws through
// one newZipf per call, to the per-draw formula: the index sequence must
// be identical for the study's exponents and for random ones.
func TestZipfMatchesPerDrawFormula(t *testing.T) {
	meta := detrand.New(20)
	exps := []float64{0.55, 0.6, 0.7, 1.0, 1 + 1e-10}
	for range 100 {
		exps = append(exps, 0.05+meta.Float64()*2.5)
	}
	for _, s := range exps {
		for range 5 {
			n := 1 + meta.Intn(500)
			k := meta.Intn(n + 3)
			seed := meta.Int63()
			got := sampleDistinct(detrand.New(seed), n, k, s)
			want := sampleDistinctPerDraw(detrand.New(seed), n, k, s)
			if !slices.Equal(got, want) {
				t.Fatalf("sampleDistinct(seed %d, n %d, k %d, s %v) = %v, per-draw formula %v", seed, n, k, s, got, want)
			}
		}
	}
}
