// Package stats implements the statistical machinery used throughout the
// measurement study: empirical CDFs, quantiles, geometric means, the
// two-sample Kolmogorov–Smirnov test, and the rank-binned median summaries
// used by the paper's appendix figures.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeometricMean returns the geometric mean of xs. Non-positive values are
// skipped (the paper computes geometric means of ratios, which are always
// positive). It returns 0 if no positive values are present.
func GeometricMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Sorted is a sample sorted once up front, for callers that need
// several quantiles of the same data. stats.Quantile copies and sorts
// on every call, which turns a p50/p90/p99 readout into three sorts of
// the same slice; Sorted pays for the sort exactly once.
type Sorted struct {
	xs []float64
}

// NewSorted copies and sorts xs.
func NewSorted(xs []float64) Sorted {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Sorted{xs: s}
}

// SortedInPlace sorts xs in place and takes ownership of it — the
// zero-allocation constructor for hot paths with a reusable buffer. The
// caller must not use xs again except through the returned Sorted.
func SortedInPlace(xs []float64) Sorted {
	sort.Float64s(xs)
	return Sorted{xs: xs}
}

// Len returns the sample size.
func (s Sorted) Len() int { return len(s.xs) }

// Quantile returns the q-quantile with the same interpolation rule as
// stats.Quantile, without re-sorting.
func (s Sorted) Quantile(q float64) float64 { return quantileSorted(s.xs, q) }

// Median returns the 0.5-quantile.
func (s Sorted) Median() float64 { return quantileSorted(s.xs, 0.5) }

// Quantiles evaluates several quantiles over one sort.
func (s Sorted) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(s.xs, q)
	}
	return out
}

// Quantiles sorts xs once and evaluates every requested quantile — the
// n-quantile counterpart of Quantile for callers without a Sorted.
func Quantiles(xs []float64, qs ...float64) []float64 {
	return NewSorted(xs).Quantiles(qs...)
}

// FractionBelow returns the fraction of samples strictly less than t.
func FractionBelow(xs []float64, t float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < t {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns F(x) = P[X <= x].
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 { return quantileSorted(e.sorted, q) }

// Min returns the smallest sample, or 0 when empty.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[0]
}

// Max returns the largest sample, or 0 when empty.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}

// Points returns up to n evenly spaced (x, F(x)) pairs suitable for
// printing a CDF series. n < 2 yields a single point at the maximum.
func (e *ECDF) Points(n int) [][2]float64 {
	if len(e.sorted) == 0 {
		return nil
	}
	if n < 2 {
		return [][2]float64{{e.Max(), 1}}
	}
	lo, hi := e.Min(), e.Max()
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, [2]float64{x, e.At(x)})
	}
	return pts
}

// KSResult holds the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	D float64 // supremum distance between the two ECDFs
	P float64 // asymptotic p-value of the null "same distribution"
}

// KSTest runs the two-sample KS test on samples a and b and returns the D
// statistic and asymptotic p-value. It returns ErrEmpty if either sample is
// empty. The paper reports "D" as the p-value of this test; we expose both.
func KSTest(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrEmpty
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)

	var d float64
	i, j := 0, 0
	na, nb := len(as), len(bs)
	for i < na && j < nb {
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < na && as[i] <= x {
			i++
		}
		for j < nb && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	en := math.Sqrt(float64(na) * float64(nb) / float64(na+nb))
	p := ksPValue((en + 0.12 + 0.11/en) * d)
	return KSResult{D: d, P: p}, nil
}

// ksPValue computes Q_KS(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2),
// the asymptotic Kolmogorov distribution complement (Numerical Recipes form).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	a2 := -2 * lambda * lambda
	sum, termPrev := 0.0, 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * 2 * math.Exp(a2*float64(k)*float64(k))
		sum += term
		if math.Abs(term) <= 1e-12*math.Abs(sum) && math.Abs(termPrev) <= 1e-12*math.Abs(sum) {
			break
		}
		termPrev = term
		sign = -sign
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// Bin is one rank bin of a binned-median summary.
type Bin struct {
	Lo, Hi int     // half-open rank range [Lo, Hi)
	Median float64 // median of the values whose rank falls in the bin
	N      int     // number of samples in the bin
}

// BinnedMedians splits samples — given as (rank, value) pairs — into
// consecutive bins of binSize ranks each (ranks are 1-based as in top
// lists) and returns the per-bin medians. Ranks beyond the last full bin
// form a final partial bin. It returns nil if binSize <= 0.
func BinnedMedians(ranks []int, values []float64, binSize int) []Bin {
	if binSize <= 0 || len(ranks) != len(values) || len(ranks) == 0 {
		return nil
	}
	maxRank := 0
	for _, r := range ranks {
		if r > maxRank {
			maxRank = r
		}
	}
	nbins := (maxRank + binSize - 1) / binSize
	buckets := make([][]float64, nbins)
	for i, r := range ranks {
		if r < 1 {
			continue
		}
		b := (r - 1) / binSize
		buckets[b] = append(buckets[b], values[i])
	}
	bins := make([]Bin, 0, nbins)
	for b, vals := range buckets {
		bins = append(bins, Bin{
			Lo:     b*binSize + 1,
			Hi:     (b + 1) * binSize,
			Median: Median(vals),
			N:      len(vals),
		})
	}
	return bins
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
