package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mimecat"
)

// synth builds a measurement whose PLT is an exact (noisy) function of
// its features, so recovery can be tested.
func synth(rng *rand.Rand, noise float64) *core.PageMeasurement {
	objects := 20 + rng.Intn(200)
	bytes := int64(1e5 + rng.Float64()*5e6)
	domains := 3 + rng.Intn(40)
	// Ground truth: PLT grows with log-bytes and domains.
	plt := 80*math.Log1p(float64(bytes)) + 12*float64(domains) + rng.NormFloat64()*noise
	if plt < 10 {
		plt = 10
	}
	return &core.PageMeasurement{
		Bytes:         bytes,
		Objects:       objects,
		UniqueDomains: domains,
		Handshakes:    domains + rng.Intn(10),
		NonCacheable:  objects / 4,
		PLT:           time.Duration(plt) * time.Millisecond,
		Scheme:        "https",
		DepthCounts:   []int{1, objects / 2, objects / 3, 0, 0, 0},
		ContentBytes: [mimecat.NumCategories]int64{
			mimecat.CatJS:    bytes / 3,
			mimecat.CatImage: bytes / 3,
		},
	}
}

func dataset(seed int64, n int, noise float64) []*core.PageMeasurement {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*core.PageMeasurement, n)
	for i := range out {
		out[i] = synth(rng, noise)
	}
	return out
}

func TestTrainRecoversSignal(t *testing.T) {
	train := dataset(1, 400, 20)
	test := dataset(2, 200, 20)
	m, err := Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Evaluate(test)
	if e.N != 200 {
		t.Fatalf("evaluated %d", e.N)
	}
	if e.MAPE > 0.15 {
		t.Errorf("MAPE = %.3f on a low-noise synthetic task", e.MAPE)
	}
	if math.Abs(e.Bias) > 0.1 {
		t.Errorf("bias = %+.3f, want ~0", e.Bias)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(dataset(3, 5, 10), 1); err == nil {
		t.Error("want error for tiny training set")
	}
}

func TestPredictNonNegative(t *testing.T) {
	m, err := Train(dataset(4, 200, 30), 1)
	if err != nil {
		t.Fatal(err)
	}
	// An absurd out-of-range page must not yield a negative prediction.
	weird := &core.PageMeasurement{Bytes: 10, Objects: 1, Scheme: "http",
		DepthCounts: []int{1}}
	if got := m.PredictMS(weird); got < 0 {
		t.Errorf("negative prediction %v", got)
	}
}

func TestSolveSingular(t *testing.T) {
	A := [][]float64{{1, 1}, {1, 1}}
	if _, err := solve(A, []float64{1, 2}); err == nil {
		t.Error("want error for a singular system")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Train(dataset(5, 100, 15), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(dataset(5, 100, 15), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range dataset(6, 50, 15) {
		if pa, pb := a.PredictMS(m), b.PredictMS(m); pa != pb {
			t.Fatalf("training not deterministic: page %d predicted %v and %v", i, pa, pb)
		}
	}
}
