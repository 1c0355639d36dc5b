package forest

// This file holds the scoring oracle of the compiled flat engine: the
// forest prediction walked through the original pointer-based tree nodes
// (tree.Regressor.PredictWithStats). TestPredictBatchMatchesReference and
// TestExactKernelsBitIdentical pin the flat engine to it bit for bit, and
// BenchmarkPredictBatch7000Reference is the speedup baseline.

// predictReference is PredictWithUncertainty on the pointer-walking
// trees; the Welford accumulation is kept operation-for-operation
// identical so the two engines return bit-identical results.
func (f *Forest) predictReference(x []float64) (mu, sigma float64) {
	var mean, m2, leafVar float64
	for t, tr := range f.trees {
		m, v, _ := tr.PredictWithStats(x)
		d := m - mean
		mean += d / float64(t+1)
		m2 += d * (m - mean)
		leafVar += v
	}
	return f.finishMoments(mean, m2, leafVar)
}

// predictBatchReference predicts all rows of X in parallel through
// predictReference.
func (f *Forest) predictBatchReference(X [][]float64) (mu, sigma []float64) {
	n := len(X)
	mu = make([]float64, n)
	sigma = make([]float64, n)
	f.parallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mu[i], sigma[i] = f.predictReference(X[i])
		}
	})
	return mu, sigma
}
