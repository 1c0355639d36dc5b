package forest

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

func numFeatures(n int) []space.Feature {
	fs := make([]space.Feature, n)
	for i := range fs {
		fs[i] = space.Feature{Name: string(rune('a' + i)), Kind: space.FeatNumeric}
	}
	return fs
}

// friedman generates the Friedman #1 benchmark function, a standard
// regression test surface with interactions and irrelevant features.
func friedman(r *rng.RNG, n int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, 7)
		for j := range row {
			row[j] = r.Float64()
		}
		X[i] = row
		y[i] = 10*math.Sin(math.Pi*row[0]*row[1]) + 20*(row[2]-0.5)*(row[2]-0.5) + 10*row[3] + 5*row[4]
	}
	return X, y
}

func TestFitErrors(t *testing.T) {
	fs := numFeatures(1)
	r := rng.New(1)
	if _, err := Fit(nil, nil, fs, Config{}, r); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, fs, Config{}, r); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, nil, Config{}, r); err == nil {
		t.Fatal("no features accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, fs, Config{}, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestDefaults(t *testing.T) {
	X, y := friedman(rng.New(2), 50)
	f, err := Fit(X, y, numFeatures(7), Config{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 64 {
		t.Fatalf("default NumTrees = %d", f.NumTrees())
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	X, y := friedman(rng.New(4), 100)
	fs := numFeatures(7)
	cfg := Config{NumTrees: 16, Workers: 4}
	f1, err := Fit(X, y, fs, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Different worker count must not change the result: per-tree streams
	// come from Child(t), not from scheduling order.
	cfg.Workers = 1
	f2, err := Fit(X, y, fs, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	probe := X[13]
	m1, s1 := f1.PredictWithUncertainty(probe)
	m2, s2 := f2.PredictWithUncertainty(probe)
	if m1 != m2 || s1 != s2 {
		t.Fatalf("determinism broken: (%v,%v) vs (%v,%v)", m1, s1, m2, s2)
	}
}

func TestLearnsFriedman(t *testing.T) {
	r := rng.New(5)
	X, y := friedman(r, 600)
	Xt, yt := friedman(r, 300)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 64}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	rmse := f.rmseOn(Xt, yt)
	// Friedman #1 has target stddev about 5; a working forest should get
	// well under half of that.
	if rmse > 2.8 {
		t.Fatalf("test RMSE = %v, forest is not learning", rmse)
	}
}

func TestUncertaintyHigherOffManifold(t *testing.T) {
	// Train on x in [0, 0.5]; uncertainty at x=0.95 (extrapolation) should
	// exceed the mean uncertainty inside the training range.
	r := rng.New(8)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		v := r.Float64() * 0.5
		X[i] = []float64{v, r.Float64()}
		y[i] = math.Sin(8*v) + 0.05*r.Norm()
	}
	// A random subspace (mtry=1) keeps trees diverse enough that the
	// boundary leaf disagrees across trees; with mtry=d all trees can
	// agree on the extrapolation region and underestimate its σ — a
	// known random-forest limitation.
	f, err := Fit(X, y, numFeatures(2), Config{NumTrees: 64, Tree: tree.Config{MaxFeatures: 1}}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var inRange float64
	const probes = 50
	for i := 0; i < probes; i++ {
		_, s := f.PredictWithUncertainty([]float64{0.25 + 0.1*r.Float64(), 0.5})
		inRange += s
	}
	inRange /= probes
	_, sOut := f.PredictWithUncertainty([]float64{0.95, 0.5})
	if sOut < inRange {
		t.Fatalf("extrapolation sigma %v < in-range mean sigma %v", sOut, inRange)
	}
}

func TestTotalVarianceAtLeastBetweenTrees(t *testing.T) {
	X, y := friedman(rng.New(10), 200)
	fs := numFeatures(7)
	fb, err := Fit(X, y, fs, Config{NumTrees: 32, Uncertainty: BetweenTrees, Tree: tree.Config{MinSamplesLeaf: 5}}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Fit(X, y, fs, Config{NumTrees: 32, Uncertainty: TotalVariance, Tree: tree.Config{MinSamplesLeaf: 5}}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, sb := fb.PredictWithUncertainty(X[i])
		_, st := ft.PredictWithUncertainty(X[i])
		if st < sb-1e-12 {
			t.Fatalf("total variance %v < between-tree %v", st, sb)
		}
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	X, y := friedman(rng.New(12), 150)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 16}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := f.PredictBatch(X)
	for i := range X {
		m, s := f.PredictWithUncertainty(X[i])
		if mu[i] != m || sigma[i] != s {
			t.Fatalf("batch mismatch at %d", i)
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	X, y := friedman(rng.New(14), 50)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 4}, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := f.PredictBatch(nil)
	if len(mu) != 0 || len(sigma) != 0 {
		t.Fatal("empty batch returned data")
	}
}

func TestOOBReasonable(t *testing.T) {
	X, y := friedman(rng.New(16), 400)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 64}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	oob := f.OOBRMSE()
	if math.IsNaN(oob) || oob <= 0 || oob > 5 {
		t.Fatalf("OOB RMSE = %v", oob)
	}
}

func TestOOBNaNWithoutBagging(t *testing.T) {
	X, y := friedman(rng.New(18), 100)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 8, DisableBagging: true}, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.OOBRMSE()) {
		t.Fatal("OOB defined despite DisableBagging")
	}
}

func TestDisableBaggingStillSubspaces(t *testing.T) {
	// Without bagging, trees differ only through the random subspace; the
	// ensemble must still show some between-tree spread on an interacting
	// target.
	X, y := friedman(rng.New(20), 200)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 16, DisableBagging: true, Tree: tree.Config{MaxFeatures: 2}}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// Probe at fresh points: at the training points themselves every
	// unbagged tree isolates the sample in a pure leaf and all trees
	// agree exactly, so the honest between-tree variance is 0 there (the
	// naive sumSq/b − μ² estimator used to report cancellation noise
	// instead). Off the training set the random subspaces disagree.
	probes, _ := friedman(rng.New(99), 50)
	var total float64
	for _, x := range probes {
		_, s := f.PredictWithUncertainty(x)
		total += s
	}
	if total == 0 {
		t.Fatal("no diversity without bagging + subspace")
	}
}

func TestFeatureUsageFindsSignal(t *testing.T) {
	// y depends only on features 0 and 3.
	r := rng.New(22)
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, 6)
		for j := range row {
			row[j] = r.Float64()
		}
		X[i] = row
		y[i] = 10*row[0] + 5*row[3]
	}
	f, err := Fit(X, y, numFeatures(6), Config{NumTrees: 32}, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	usage := f.FeatureUsage()
	if usage[0] < usage[1] || usage[0] < usage[2] || usage[3] < usage[1] {
		t.Fatalf("usage did not find signal features: %v", usage)
	}
	var sum float64
	for _, u := range usage {
		sum += u
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("usage does not sum to 1: %v", sum)
	}
}

// rmseOn returns the forest's RMSE over (X, y).
func (f *Forest) rmseOn(X [][]float64, y []float64) float64 {
	mu, _ := f.PredictBatch(X)
	var sse float64
	for i := range y {
		d := mu[i] - y[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(y)))
}

func TestCategoricalFeatures(t *testing.T) {
	// Mixed numeric + categorical target: group parity decides the level.
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 6},
	}
	r := rng.New(27)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		c := r.Intn(6)
		X[i] = []float64{r.Float64(), float64(c)}
		y[i] = X[i][0]
		if c%2 == 0 {
			y[i] += 10
		}
	}
	f, err := Fit(X, y, fs, Config{NumTrees: 32}, rng.New(28))
	if err != nil {
		t.Fatal(err)
	}
	evenPred := f.Predict([]float64{0.5, 2})
	oddPred := f.Predict([]float64{0.5, 3})
	if evenPred-oddPred < 8 {
		t.Fatalf("categorical effect not learned: even=%v odd=%v", evenPred, oddPred)
	}
}

func TestRobustToOutliers(t *testing.T) {
	// One wild outlier should shift predictions far from it only locally.
	r := rng.New(29)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(i) / float64(n)}
		y[i] = 1
	}
	y[0] = 1e6 // outlier at x near 0
	f, err := Fit(X, y, numFeatures(1), Config{NumTrees: 64}, rng.New(30))
	if err != nil {
		t.Fatal(err)
	}
	if p := f.Predict([]float64{0.9}); math.Abs(p-1) > 100 {
		t.Fatalf("outlier contaminated distant prediction: %v", p)
	}
	_ = r
}

func TestTreeDepthStats(t *testing.T) {
	X, y := friedman(rng.New(31), 200)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 8, Tree: tree.Config{MaxDepth: 4}}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range f.trees {
		if d := tr.Depth(); d < 0 || d > 4 {
			t.Fatalf("tree %d has depth %d, MaxDepth 4", i, d)
		}
	}
}

// TestForestFitBaggingModes pins the strided-worker fit path in both
// bagging modes: the fitted forest must be identical across worker
// counts (per-tree streams come from Child(t), and the per-worker
// bootstrap/workspace scratch must not bleed between trees), and OOB
// must be defined exactly when bagging is on. Run under -race this also
// gates the presorted engine's concurrent use from multiple workers.
func TestForestFitBaggingModes(t *testing.T) {
	X, y := friedman(rng.New(40), 250)
	probes, _ := friedman(rng.New(41), 60)
	fs := numFeatures(7)
	for _, disable := range []bool{false, true} {
		cfg := Config{NumTrees: 24, DisableBagging: disable, Workers: 5,
			Tree: tree.Config{MaxFeatures: 3}}
		f1, err := Fit(X, y, fs, cfg, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 1
		f2, err := Fit(X, y, fs, cfg, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		mu1, s1 := f1.PredictBatch(probes)
		mu2, s2 := f2.PredictBatch(probes)
		for i := range probes {
			if mu1[i] != mu2[i] || s1[i] != s2[i] {
				t.Fatalf("disable=%v: worker count changed predictions at row %d", disable, i)
			}
		}
		if disable && !math.IsNaN(f1.OOBRMSE()) {
			t.Fatalf("OOB defined with bagging disabled: %v", f1.OOBRMSE())
		}
		if !disable && (math.IsNaN(f1.OOBRMSE()) || f1.OOBRMSE() != f2.OOBRMSE()) {
			t.Fatalf("OOB not reproducible across worker counts: %v vs %v", f1.OOBRMSE(), f2.OOBRMSE())
		}
	}
}

// TestOOBParallelMatchesSerial checks the chunked-parallel OOB pass
// against a plain serial recomputation: same votes, bit-identical RMSE,
// for several worker counts (including more workers than rows would
// split evenly across).
func TestOOBParallelMatchesSerial(t *testing.T) {
	X, y := friedman(rng.New(44), 150)
	n := len(X)
	for _, workers := range []int{1, 3, 8} {
		f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 32, Workers: workers}, rng.New(45))
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the bootstrap membership from the same child
		// streams Fit used.
		root := rng.New(45)
		inBag := make([][]bool, f.NumTrees())
		for tr := 0; tr < f.NumTrees(); tr++ {
			child := root.Child(uint64(tr))
			bag := make([]bool, n)
			for i := 0; i < n; i++ {
				bag[child.Intn(n)] = true
			}
			inBag[tr] = bag
		}
		var sse float64
		covered := 0
		for i := range X {
			var sum float64
			votes := 0
			for tr, c := range f.trees {
				if inBag[tr][i] {
					continue
				}
				sum += c.Predict(X[i])
				votes++
			}
			if votes == 0 {
				continue
			}
			d := sum/float64(votes) - y[i]
			sse += d * d
			covered++
		}
		want := math.Sqrt(sse / float64(covered))
		if got := f.OOBRMSE(); got != want {
			t.Fatalf("workers=%d: parallel OOB %v != serial %v", workers, got, want)
		}
		// The method itself must also be invariant to its own chunking.
		if again := f.oobRMSE(X, y, inBag); again != want {
			t.Fatalf("workers=%d: oobRMSE recomputation drifted: %v != %v", workers, again, want)
		}
	}
}

func BenchmarkFitForest(b *testing.B) {
	X, y := friedman(rng.New(1), 500)
	fs := numFeatures(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, fs, Config{NumTrees: 64}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictBatch7000(b *testing.B) {
	X, y := friedman(rng.New(1), 500)
	pool, _ := friedman(rng.New(2), 7000)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 64}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(pool)
	}
}

// BenchmarkPredictBatch7000Reference is the pointer-walking baseline for
// BenchmarkPredictBatch7000: same forest, same pool, same parallelism,
// but traversing pointer trees decoded from the forest's JSON instead
// of the flat arrays.
func BenchmarkPredictBatch7000Reference(b *testing.B) {
	X, y := friedman(rng.New(1), 500)
	pool, _ := friedman(rng.New(2), 7000)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 64}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	ref := newReference(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.predictBatch(pool)
	}
}
