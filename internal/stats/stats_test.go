package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestGeometricMean(t *testing.T) {
	if got := GeometricMean([]float64{2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeometricMean(2,8) = %v, want 4", got)
	}
	// Non-positive values are skipped.
	if got := GeometricMean([]float64{-1, 0, 2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeometricMean with nonpositives = %v, want 4", got)
	}
	if got := GeometricMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeometricMean of nonpositives = %v, want 0", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Median mutated its input: %v", xs)
	}
	even := []float64{1, 2, 3, 4}
	if got := Median(even); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median(even) = %v, want 2.5", got)
	}
	if got := Quantile(even, 0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(even, 1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(xs, q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{-1, 0, 1, 2}
	if got := FractionBelow(xs, 0); got != 0.25 {
		t.Errorf("FractionBelow = %v, want 0.25", got)
	}
	if got := FractionBelow(nil, 0); got != 0 {
		t.Errorf("FractionBelow(nil) = %v, want 0", got)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 || e.Min() != 1 || e.Max() != 3 {
		t.Errorf("N/Min/Max = %d/%v/%v", e.N(), e.Min(), e.Max())
	}
	pts := e.Points(5)
	if len(pts) != 5 || pts[0][0] != 1 || pts[4][0] != 3 || pts[4][1] != 1 {
		t.Errorf("Points = %v", pts)
	}
}

func TestECDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		// F is monotone in [0,1] and hits 1 at the max.
		prev := 0.0
		lo, hi := e.Min(), e.Max()
		for i := 0; i <= 10; i++ {
			x := lo + (hi-lo)*float64(i)/10
			v := e.At(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return almostEqual(e.At(hi), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKSTestIdenticalSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	res, err := KSTest(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("D for identical samples = %v, want 0", res.D)
	}
	if res.P < 0.99 {
		t.Errorf("p for identical samples = %v, want ~1", res.P)
	}
}

func TestKSTestSeparatesDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1.5
	}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("p for shifted normals = %v, want << 1e-6", res.P)
	}
	if res.D < 0.3 {
		t.Errorf("D for shifted normals = %v, want > 0.3", res.D)
	}
}

func TestKSTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rejections := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 200)
		b := make([]float64, 200)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		res, err := KSTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			rejections++
		}
	}
	// ~5% expected; allow generous slack.
	if rejections > trials/4 {
		t.Errorf("same-distribution rejections %d/%d, want ~5%%", rejections, trials)
	}
}

func TestKSTestEmpty(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}); err == nil {
		t.Error("want error for empty sample")
	}
}

func TestBinnedMedians(t *testing.T) {
	ranks := []int{1, 2, 3, 101, 102, 250}
	vals := []float64{1, 2, 3, 10, 20, 99}
	bins := BinnedMedians(ranks, vals, 100)
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins[0].Median != 2 || bins[0].N != 3 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if bins[1].Median != 15 || bins[1].N != 2 {
		t.Errorf("bin1 = %+v", bins[1])
	}
	if bins[2].Median != 99 || bins[2].N != 1 {
		t.Errorf("bin2 = %+v", bins[2])
	}
	if bins[0].Lo != 1 || bins[0].Hi != 100 {
		t.Errorf("bin0 range = %d-%d", bins[0].Lo, bins[0].Hi)
	}
	if BinnedMedians(nil, nil, 100) != nil {
		t.Error("empty input should yield nil")
	}
	if BinnedMedians(ranks, vals, 0) != nil {
		t.Error("zero bin size should yield nil")
	}
}

func TestSums(t *testing.T) {
	if Sum([]float64{1.5, 2.5}) != 4 {
		t.Error("Sum wrong")
	}
}
