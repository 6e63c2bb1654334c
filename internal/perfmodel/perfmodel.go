// Package perfmodel implements the paper's §7 "Learn web page
// characteristics" proposal: a model that predicts page-load time from
// structural page features (size, objects, origins, dependency depths,
// CDN share, …). Its purpose here is to make the paper's core warning
// measurable in a fourth way: a model trained only on landing pages
// mispredicts internal pages, because the two page types occupy
// different regions of feature space *and* map features to latency
// differently (the Jekyll/Hyde gap is not just covariate shift).
//
// The regressor is ridge regression solved by Gaussian elimination —
// deliberately simple, dependency-free, and fully deterministic.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// NumFeatures is the length of a feature vector.
const NumFeatures = 12

// Features extracts the model inputs from a page measurement. All
// entries are scale-stable (logs and fractions), so one normalization
// fits both page types.
func Features(m *core.PageMeasurement) [NumFeatures]float64 {
	var f [NumFeatures]float64
	f[0] = math.Log1p(float64(m.Bytes))
	f[1] = math.Log1p(float64(m.Objects))
	f[2] = float64(m.UniqueDomains)
	f[3] = float64(m.Handshakes)
	if m.Objects > 0 {
		f[4] = float64(m.NonCacheable) / float64(m.Objects)
	}
	f[5] = m.CDNByteFraction()
	f[6] = m.JSFraction()
	f[7] = m.ImageFraction()
	deep := 0
	for d := 2; d < len(m.DepthCounts); d++ {
		deep += m.DepthCounts[d]
	}
	if m.Objects > 0 {
		f[8] = float64(deep) / float64(m.Objects)
	}
	f[9] = float64(m.Hints)
	f[10] = float64(len(m.ThirdParties))
	if m.Scheme == "https" {
		f[11] = 1
	}
	return f
}

// Model is a trained ridge regressor predicting PLT milliseconds.
type Model struct {
	weights []float64 // NumFeatures + 1 (bias last)
	mean    [NumFeatures]float64
	std     [NumFeatures]float64
}

// Train fits the model on the given measurements with ridge penalty
// lambda (e.g. 1.0). It returns an error for degenerate inputs.
func Train(ms []*core.PageMeasurement, lambda float64) (*Model, error) {
	n := len(ms)
	if n < NumFeatures+2 {
		return nil, fmt.Errorf("perfmodel: %d samples, need at least %d", n, NumFeatures+2)
	}
	if lambda <= 0 {
		lambda = 1
	}
	model := &Model{}

	// Standardize features.
	// The target is log-PLT: page latency is heavy-tailed and
	// multiplicative in its causes, so the linear model fits the log.
	X := make([][NumFeatures]float64, n)
	y := make([]float64, n)
	for i, m := range ms {
		X[i] = Features(m)
		y[i] = math.Log1p(float64(m.PLT.Milliseconds()))
	}
	for j := 0; j < NumFeatures; j++ {
		var sum float64
		for i := range X {
			sum += X[i][j]
		}
		model.mean[j] = sum / float64(n)
		var sq float64
		for i := range X {
			d := X[i][j] - model.mean[j]
			sq += d * d
		}
		model.std[j] = math.Sqrt(sq / float64(n))
		if model.std[j] < 1e-9 {
			model.std[j] = 1
		}
	}

	// Design matrix with bias column.
	k := NumFeatures + 1
	A := make([][]float64, k) // A = X'X + λI
	b := make([]float64, k)   // b = X'y
	for i := range A {
		A[i] = make([]float64, k)
	}
	row := make([]float64, k)
	for i := 0; i < n; i++ {
		for j := 0; j < NumFeatures; j++ {
			row[j] = (X[i][j] - model.mean[j]) / model.std[j]
		}
		row[NumFeatures] = 1
		for a := 0; a < k; a++ {
			for c := 0; c < k; c++ {
				A[a][c] += row[a] * row[c]
			}
			b[a] += row[a] * y[i]
		}
	}
	for j := 0; j < NumFeatures; j++ {
		A[j][j] += lambda // no penalty on the bias
	}

	w, err := solve(A, b)
	if err != nil {
		return nil, err
	}
	model.weights = w
	return model, nil
}

// solve performs Gaussian elimination with partial pivoting.
func solve(A [][]float64, b []float64) ([]float64, error) {
	k := len(b)
	for col := 0; col < k; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < k; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[p][col]) {
				p = r
			}
		}
		if math.Abs(A[p][col]) < 1e-12 {
			return nil, fmt.Errorf("perfmodel: singular system at column %d", col)
		}
		A[col], A[p] = A[p], A[col]
		b[col], b[p] = b[p], b[col]
		// Eliminate.
		for r := col + 1; r < k; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c < k; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	w := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < k; c++ {
			sum -= A[r][c] * w[c]
		}
		w[r] = sum / A[r][r]
	}
	return w, nil
}

// PredictMS returns the predicted PLT in milliseconds.
func (mo *Model) PredictMS(m *core.PageMeasurement) float64 {
	f := Features(m)
	pred := mo.weights[NumFeatures] // bias
	for j := 0; j < NumFeatures; j++ {
		pred += mo.weights[j] * (f[j] - mo.mean[j]) / mo.std[j]
	}
	// Invert the log-target transform.
	ms := math.Expm1(pred)
	if ms < 0 {
		ms = 0
	}
	return ms
}

// Eval holds error statistics of a model over a test set.
type Eval struct {
	N    int
	MAE  float64 // mean absolute error, ms
	MAPE float64 // mean absolute relative error
	Bias float64 // mean signed relative error: >0 = overprediction
}

// Evaluate scores the model on a test set.
func (mo *Model) Evaluate(ms []*core.PageMeasurement) Eval {
	var e Eval
	for _, m := range ms {
		actual := float64(m.PLT.Milliseconds())
		if actual <= 0 {
			continue
		}
		pred := mo.PredictMS(m)
		e.N++
		e.MAE += math.Abs(pred - actual)
		e.MAPE += math.Abs(pred-actual) / actual
		e.Bias += (pred - actual) / actual
	}
	if e.N > 0 {
		e.MAE /= float64(e.N)
		e.MAPE /= float64(e.N)
		e.Bias /= float64(e.N)
	}
	return e
}
