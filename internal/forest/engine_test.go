package forest

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestUncertaintyLargeOffset is the regression test for the catastrophic
// cancellation the Welford accumulation fixes: targets near 1e8 with a
// milli-scale spread. The naive sumSq/b − μ² form loses the spread
// entirely (double precision leaves ~1 absolute error at 1e16, swamping
// the ~1e-6 true variance) and reports σ = 0 or garbage; Welford keeps
// the milli-scale between-tree disagreement.
func TestUncertaintyLargeOffset(t *testing.T) {
	r := rng.New(1)
	const n = 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := r.Float64()
		X[i] = []float64{x}
		y[i] = 1e8 + 1e-3*math.Sin(12*x)
	}
	f, err := Fit(X, y, numFeatures(1), Config{NumTrees: 32}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var maxSigma float64
	for i := 0; i < 50; i++ {
		_, s := f.PredictWithUncertainty([]float64{(float64(i) + 0.5) / 50})
		if math.IsNaN(s) || s < 0 {
			t.Fatalf("probe %d: σ = %v", i, s)
		}
		if s > maxSigma {
			maxSigma = s
		}
	}
	// Bagged trees must disagree somewhere at milli scale — but only at
	// milli scale: anything near 1 would itself be cancellation noise.
	if maxSigma <= 0 {
		t.Fatal("σ identically zero: between-tree spread cancelled away")
	}
	if maxSigma >= 1 {
		t.Fatalf("σ = %v, far above the 1e-3 target spread", maxSigma)
	}
}

// TestPredictBatchMatchesReference pins the flat engine to the
// pointer-walking baseline bit for bit, on both uncertainty estimators.
func TestPredictBatchMatchesReference(t *testing.T) {
	X, y := friedman(rng.New(3), 300)
	pool, _ := friedman(rng.New(4), 500)
	for _, u := range []UncertaintyKind{BetweenTrees, TotalVariance} {
		f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 32, Uncertainty: u}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		mu, sigma := f.PredictBatch(pool)
		rmu, rsigma := newReference(t, f).predictBatch(pool)
		for i := range pool {
			if mu[i] != rmu[i] || sigma[i] != rsigma[i] {
				t.Fatalf("estimator %v row %d: flat (%v,%v) reference (%v,%v)",
					u, i, mu[i], sigma[i], rmu[i], rsigma[i])
			}
		}
	}
}
