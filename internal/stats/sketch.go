package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sketch is a mergeable quantile sketch: a log-bucketed histogram in the
// style of DDSketch, tuned for the streaming study engine. Every value v
// with |v| >= sketchZeroEps lands in the bucket whose index is
// ceil(log_gamma |v|) (gamma = (1+alpha)/(1-alpha)), so any quantile it
// reports is within a relative error of alpha of a true sample value.
// Values smaller than sketchZeroEps in magnitude share an exact zero
// bucket, and negative values mirror the positive bucket line.
//
// Properties the engine depends on:
//
//   - Insertion-order invariance: the sketch state is a pure function of
//     the multiset of inserted values (bucket counts are integer sums),
//     so shard accumulators filled by racing workers merge to the same
//     sketch no matter how sites were scheduled. The only caveat is Sum:
//     float addition is not associative, so Sum-derived outputs are
//     bit-stable only when values are folded in a fixed order (the
//     streaming engine folds in site-rank order for exactly this
//     reason).
//   - Bounded size: the bucket count grows with the dynamic range of the
//     data, not the sample count — ceil(log_gamma(max/min)) buckets per
//     sign, about 1,160 for values spanning 12 decades at alpha = 1%.
//     If a pathological range exceeds MaxBins, the sketch coarsens
//     deterministically (alpha doubles, buckets pairwise collapse) and
//     Alpha() reports the degraded accuracy.
//   - Deterministic reads: quantile and CDF queries walk buckets in
//     ascending value order (sorted keys, never map order).
//
// The zero value is unusable; construct with NewSketch.
type Sketch struct {
	alpha   float64
	gamma   float64
	lgGamma float64
	maxBins int

	pos  map[int]uint64 // bucket index -> count, positive values
	neg  map[int]uint64 // bucket index -> count, negative values (by |v|)
	zero uint64

	count    uint64
	sum      float64
	min, max float64
}

// sketchZeroEps is the magnitude below which values are counted as exact
// zeros. Study metrics are milliseconds, bytes, and counts; anything
// below this is zero for every question the paper asks.
const sketchZeroEps = 1e-9

// DefaultSketchAlpha is the relative accuracy used by NewDefaultSketch:
// reported quantiles are within 1% of a true sample value.
const DefaultSketchAlpha = 0.01

// DefaultSketchMaxBins bounds the bucket count (per sketch, both signs
// combined) before deterministic coarsening kicks in. At alpha = 1% this
// accommodates roughly 35 decades of dynamic range — far beyond any
// study metric — so coarsening is a safety valve, not a working mode.
const DefaultSketchMaxBins = 4096

// NewSketch builds a sketch with the given relative accuracy alpha
// (0 < alpha < 1) and bucket bound maxBins (<= 0 means
// DefaultSketchMaxBins).
func NewSketch(alpha float64, maxBins int) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		alpha = DefaultSketchAlpha
	}
	if maxBins <= 0 {
		maxBins = DefaultSketchMaxBins
	}
	s := &Sketch{alpha: alpha, maxBins: maxBins, pos: make(map[int]uint64), neg: make(map[int]uint64)}
	s.setAlpha(alpha)
	return s
}

// NewDefaultSketch builds a sketch with the default accuracy and bounds.
func NewDefaultSketch() *Sketch { return NewSketch(DefaultSketchAlpha, DefaultSketchMaxBins) }

func (s *Sketch) setAlpha(alpha float64) {
	s.alpha = alpha
	s.gamma = (1 + alpha) / (1 - alpha)
	s.lgGamma = math.Log(s.gamma)
}

// Alpha returns the current relative accuracy (it degrades only if the
// sketch ever coarsened past MaxBins).
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of inserted values.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the exact running sum of inserted values. It is the one
// read whose low bits depend on insertion order; fold in a fixed order
// when bit-stability matters.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest inserted value, or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest inserted value, or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Bins returns the live bucket count (diagnostics and tests).
func (s *Sketch) Bins() int { return len(s.pos) + len(s.neg) }

// key maps a magnitude (>= sketchZeroEps) to its bucket index.
func (s *Sketch) key(mag float64) int {
	return int(math.Ceil(math.Log(mag) / s.lgGamma))
}

// rep returns the representative value of bucket k: the midpoint of
// (gamma^(k-1), gamma^k] in relative terms, within alpha of any member.
func (s *Sketch) rep(k int) float64 {
	return 2 * math.Exp(float64(k)*s.lgGamma) / (s.gamma + 1)
}

// Insert adds one value. NaN is ignored (it has no rank); infinities are
// clamped into the extreme buckets via math.MaxFloat64.
func (s *Sketch) Insert(v float64) {
	if math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		v = -math.MaxFloat64
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	switch {
	case math.Abs(v) < sketchZeroEps:
		s.zero++
	case v > 0:
		s.pos[s.key(v)]++
	default:
		s.neg[s.key(-v)]++
	}
	s.coarsenIfNeeded()
}

// Merge folds other into s. Bucket counts are integer sums, so merging
// is commutative and associative up to Sum's float rounding; the
// streaming engine merges shards in rank order to pin even that down.
// The receiver and argument may use different accuracies: the merged
// sketch coarsens to the coarser of the two first.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	for other.alpha > s.alpha+1e-15 {
		s.coarsen()
	}
	if math.Abs(other.alpha-s.alpha) > 1e-15 {
		// Bucket lines only align when gammas match (we only ever coarsen
		// by squaring gamma, so same-origin sketches always realign).
		return fmt.Errorf("stats: cannot merge sketches with misaligned accuracies %g and %g", s.alpha, other.alpha)
	}
	if other.min < s.min || s.count == 0 {
		s.min = other.min
	}
	if other.max > s.max || s.count == 0 {
		s.max = other.max
	}
	s.count += other.count
	s.sum += other.sum
	s.zero += other.zero
	for k, c := range other.pos {
		s.pos[k] += c
	}
	for k, c := range other.neg {
		s.neg[k] += c
	}
	s.coarsenIfNeeded()
	return nil
}

// coarsenIfNeeded halves resolution until the bucket bound holds.
func (s *Sketch) coarsenIfNeeded() {
	for s.Bins() > s.maxBins {
		s.coarsen()
	}
}

// coarsen squares gamma (doubling alpha to first order) and collapses
// buckets pairwise: bucket k at gamma maps to ceil(k/2) at gamma². The
// mapping depends only on bucket indices, never on contents or order.
func (s *Sketch) coarsen() {
	fold := func(m map[int]uint64) map[int]uint64 {
		out := make(map[int]uint64, (len(m)+1)/2)
		for k, c := range m {
			nk := k / 2
			if k%2 != 0 { // ceil for positives, matching ceil(log) keying
				nk = (k + 1) / 2
			}
			out[nk] += c
		}
		return out
	}
	s.pos = fold(s.pos)
	s.neg = fold(s.neg)
	gamma2 := s.gamma * s.gamma
	s.alpha = (gamma2 - 1) / (gamma2 + 1)
	s.gamma = gamma2
	s.lgGamma = math.Log(gamma2)
}

// sortedKeys returns m's bucket indices in ascending order.
func sortedKeys(m map[int]uint64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Quantile returns the q-quantile (0 <= q <= 1), or 0 when empty. The
// result is within Alpha() relative error of the true sample quantile,
// except at the extremes: q=0 and q=1 return the exact Min and Max.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// Target the same closest-rank convention as stats.Quantile; the
	// bucket holding that rank answers within relative error alpha.
	rank := uint64(math.Round(q * float64(s.count-1)))
	var seen uint64
	// Ascending value order: most-negative buckets first (descending
	// index over neg), then zero, then positives ascending.
	negKeys := sortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- {
		seen += s.neg[negKeys[i]]
		if seen > rank {
			return -s.rep(negKeys[i])
		}
	}
	seen += s.zero
	if seen > rank {
		return 0
	}
	for _, k := range sortedKeys(s.pos) {
		seen += s.pos[k]
		if seen > rank {
			return s.rep(k)
		}
	}
	return s.max
}

// Median returns the 0.5-quantile.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// FractionBelow returns the fraction of inserted values whose bucket
// representative is strictly less than t — the streaming analogue of
// stats.FractionBelow, exact up to bucket granularity at t.
func (s *Sketch) FractionBelow(t float64) float64 {
	if s.count == 0 {
		return 0
	}
	// Exact outside the observed range, whatever the bucket boundaries.
	if t <= s.min {
		return 0
	}
	if t > s.max {
		return 1
	}
	var below uint64
	for k, c := range s.neg {
		if -s.rep(k) < t {
			below += c
		}
	}
	if 0 < t {
		below += s.zero
	}
	for k, c := range s.pos {
		if s.rep(k) < t {
			below += c
		}
	}
	return float64(below) / float64(s.count)
}

// At returns the empirical CDF at x, F(x) = P[X <= x], up to bucket
// granularity — the streaming analogue of ECDF.At.
func (s *Sketch) At(x float64) float64 {
	if s.count == 0 {
		return 0
	}
	// Exact outside the observed range, whatever the bucket boundaries.
	if x >= s.max {
		return 1
	}
	if x < s.min {
		return 0
	}
	var atOrBelow uint64
	for k, c := range s.neg {
		if -s.rep(k) <= x {
			atOrBelow += c
		}
	}
	if 0 <= x {
		atOrBelow += s.zero
	}
	for k, c := range s.pos {
		if s.rep(k) <= x {
			atOrBelow += c
		}
	}
	return float64(atOrBelow) / float64(s.count)
}

// Points returns up to n evenly spaced (x, F(x)) pairs — the streaming
// analogue of ECDF.Points, for rendering CDF series without holding the
// sample.
func (s *Sketch) Points(n int) [][2]float64 {
	if s.count == 0 {
		return nil
	}
	if n < 2 {
		return [][2]float64{{s.max, 1}}
	}
	lo, hi := s.min, s.max
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, [2]float64{x, s.At(x)})
	}
	return pts
}
