package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sketchSample draws a deterministic mixed-sign heavy-tailed sample.
func sketchSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		v := math.Exp(rng.NormFloat64()*2) * 1e3 // log-normal, ~6 decades
		if rng.Intn(4) == 0 {
			v = -v
		}
		if rng.Intn(50) == 0 {
			v = 0
		}
		xs[i] = v
	}
	return xs
}

func TestSketchQuantileAccuracy(t *testing.T) {
	xs := sketchSample(20000, 1)
	sk := NewDefaultSketch()
	for _, v := range xs {
		sk.Insert(v)
	}
	sorted := NewSorted(xs)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := sk.Quantile(q)
		want := sorted.Quantile(q)
		// The sketch guarantees relative error alpha against a true
		// sample value; the interpolated reference adds a little slack.
		tol := 3*DefaultSketchAlpha*math.Abs(want) + sketchZeroEps
		if math.Abs(got-want) > tol {
			t.Errorf("q=%.2f: sketch %v, sample %v (tol %v)", q, got, want, tol)
		}
	}
	if got, want := sk.Quantile(0), sorted.Quantile(0); got != want {
		t.Errorf("q=0 must be exact min: %v vs %v", got, want)
	}
	if got, want := sk.Quantile(1), sorted.Quantile(1); got != want {
		t.Errorf("q=1 must be exact max: %v vs %v", got, want)
	}
	if sk.Count() != uint64(len(xs)) {
		t.Errorf("count %d, want %d", sk.Count(), len(xs))
	}
	if got, want := sk.Mean(), Mean(xs); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("mean %v, want %v", got, want)
	}
}

// TestSketchOrderInvariance: the same multiset of values must produce
// an identical sketch no matter the insertion order or how it was
// partitioned into shards before merging.
func TestSketchOrderInvariance(t *testing.T) {
	xs := sketchSample(5000, 2)

	forward := NewDefaultSketch()
	for _, v := range xs {
		forward.Insert(v)
	}
	backward := NewDefaultSketch()
	for i := len(xs) - 1; i >= 0; i-- {
		backward.Insert(xs[i])
	}

	// Partition into ragged shards and merge them out of order.
	shards := make([]*Sketch, 7)
	for i := range shards {
		shards[i] = NewDefaultSketch()
	}
	for i, v := range xs {
		shards[(i*i)%len(shards)].Insert(v)
	}
	merged := NewDefaultSketch()
	for _, i := range []int{3, 0, 6, 1, 5, 2, 4} {
		if err := merged.Merge(shards[i]); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		f, b, m := forward.Quantile(q), backward.Quantile(q), merged.Quantile(q)
		if f != b || f != m {
			t.Errorf("q=%v differs across orders: forward %v backward %v merged %v", q, f, b, m)
		}
	}
	if forward.Count() != merged.Count() || forward.Bins() != merged.Bins() {
		t.Errorf("structure differs: count %d/%d bins %d/%d",
			forward.Count(), merged.Count(), forward.Bins(), merged.Bins())
	}
	// Sums agree to float tolerance (addition order legitimately differs).
	if math.Abs(forward.Sum()-merged.Sum()) > 1e-6*math.Abs(forward.Sum()) {
		t.Errorf("sum diverged: %v vs %v", forward.Sum(), merged.Sum())
	}
}

func TestSketchDeterministicAcrossRuns(t *testing.T) {
	build := func() *Sketch {
		sk := NewDefaultSketch()
		for _, v := range sketchSample(3000, 3) {
			sk.Insert(v)
		}
		return sk
	}
	a, b := build(), build()
	for q := 0.0; q <= 1.0; q += 0.05 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	for _, x := range []float64{-100, 0, 1, 1e3, 1e6} {
		if a.At(x) != b.At(x) || a.FractionBelow(x) != b.FractionBelow(x) {
			t.Fatalf("CDF at %v differs across identical builds", x)
		}
	}
}

func TestSketchBinsBoundedByRange(t *testing.T) {
	sk := NewDefaultSketch()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		sk.Insert(1 + rng.Float64()*1e9) // 9 decades
	}
	// Bins track dynamic range, not sample count: log_gamma(1e9) ≈ 1036.
	if sk.Bins() > 1200 {
		t.Errorf("bins %d for 9 decades at alpha=1%%; want ~1040", sk.Bins())
	}
	if sk.Alpha() != DefaultSketchAlpha {
		t.Errorf("alpha degraded to %v without cause", sk.Alpha())
	}
}

func TestSketchCoarsensPastMaxBins(t *testing.T) {
	sk := NewSketch(0.01, 64)
	for i := -200; i <= 200; i++ {
		sk.Insert(math.Exp(float64(i) / 10)) // ~17 decades
	}
	if sk.Bins() > 64 {
		t.Errorf("bins %d exceed cap 64", sk.Bins())
	}
	if sk.Alpha() <= 0.01 {
		t.Errorf("coarsening must degrade alpha, still %v", sk.Alpha())
	}
	// Quantiles still honor the (degraded) error bound.
	med := sk.Median()
	if math.Abs(med-1) > sk.Alpha()*2+0.1 {
		t.Errorf("median %v, want ~1 within alpha %v", med, sk.Alpha())
	}
}

func TestSketchFractionBelowAndAt(t *testing.T) {
	sk := NewDefaultSketch()
	for i := 1; i <= 1000; i++ {
		sk.Insert(float64(i))
	}
	if got := sk.FractionBelow(500); math.Abs(got-0.5) > 0.02 {
		t.Errorf("FractionBelow(500) = %v, want ~0.5", got)
	}
	if got := sk.At(1000); got != 1 {
		t.Errorf("At(max) = %v, want 1", got)
	}
	if got := sk.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	pts := sk.Points(11)
	if len(pts) != 11 {
		t.Fatalf("points: %d", len(pts))
	}
	if pts[len(pts)-1][1] != 1 {
		t.Errorf("last CDF point %v, want 1", pts[len(pts)-1][1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][1] < pts[i-1][1] {
			t.Errorf("CDF not monotone at %d: %v < %v", i, pts[i][1], pts[i-1][1])
		}
	}
}

func TestSketchNegativeAndZero(t *testing.T) {
	sk := NewDefaultSketch()
	vals := []float64{-1000, -10, -0.5, 0, 0, 0.5, 10, 1000}
	for _, v := range vals {
		sk.Insert(v)
	}
	if sk.Min() != -1000 || sk.Max() != 1000 {
		t.Errorf("min/max %v/%v", sk.Min(), sk.Max())
	}
	if got := sk.Median(); math.Abs(got) > 0.01 {
		t.Errorf("median %v, want ~0", got)
	}
	if got := sk.FractionBelow(0); got != 0.375 {
		t.Errorf("FractionBelow(0) = %v, want 3/8", got)
	}
}

func TestSketchEmptyAndNaN(t *testing.T) {
	sk := NewDefaultSketch()
	if sk.Quantile(0.5) != 0 || sk.Mean() != 0 || sk.At(1) != 0 || sk.Points(5) != nil {
		t.Error("empty sketch must read as zeros")
	}
	sk.Insert(math.NaN())
	if sk.Count() != 0 {
		t.Errorf("NaN must be ignored, count %d", sk.Count())
	}
	sk.Insert(math.Inf(1))
	if sk.Count() != 1 || sk.Max() != math.MaxFloat64 {
		t.Errorf("+Inf must clamp: count %d max %v", sk.Count(), sk.Max())
	}
}

func TestSketchMergeMismatchedAlpha(t *testing.T) {
	a := NewSketch(0.01, 0)
	b := NewSketch(0.02, 0)
	b.Insert(1)
	if err := a.Merge(b); err == nil {
		t.Error("merging misaligned bucket lines must fail")
	}
	// Same-origin coarsened sketches realign: 0.01 coarsened once has
	// gamma², which a fresh 0.01 sketch reaches by coarsening too.
	c := NewSketch(0.01, 0)
	c.coarsen()
	c.Insert(5)
	d := NewSketch(0.01, 0)
	d.Insert(7)
	if err := d.Merge(c); err != nil {
		t.Errorf("same-origin coarsened merge: %v", err)
	}
	if d.Count() != 2 {
		t.Errorf("count %d", d.Count())
	}
}

func TestSortedQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	s := NewSorted(xs)
	if xs[0] != 9 {
		t.Error("NewSorted must not mutate its input")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := s.Quantile(q), Quantile(xs, q); got != want {
			t.Errorf("q=%v: %v vs %v", q, got, want)
		}
	}
	got := Quantiles(xs, 0.5, 1)
	if got[0] != 5 || got[1] != 9 {
		t.Errorf("Quantiles = %v", got)
	}
	own := []float64{4, 2, 8}
	ip := SortedInPlace(own)
	if own[0] != 2 {
		t.Error("SortedInPlace must sort in place")
	}
	if ip.Median() != 4 || ip.Len() != 3 {
		t.Errorf("in-place median %v len %d", ip.Median(), ip.Len())
	}
}
