package tree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/space"
)

func numFeatures(n int) []space.Feature {
	fs := make([]space.Feature, n)
	for i := range fs {
		fs[i] = space.Feature{Name: string(rune('a' + i)), Kind: space.FeatNumeric}
	}
	return fs
}

func TestFitErrors(t *testing.T) {
	fs := numFeatures(1)
	if _, err := Fit(nil, nil, fs, Config{}, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, fs, Config{}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, nil, Config{}, nil); err == nil {
		t.Fatal("no features accepted")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1}, fs, Config{}, nil); err == nil {
		t.Fatal("wrong row width accepted")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1, 2}, numFeatures(2)[:2], Config{MaxFeatures: 1}, nil); err == nil {
		t.Fatal("subspace without RNG accepted")
	}
}

func TestPerfectFitOnTrainingData(t *testing.T) {
	// With unlimited depth and distinct xs, the tree memorizes training data.
	X := [][]float64{{1}, {2}, {3}, {4}, {5}}
	y := []float64{10, -3, 7, 7, 0}
	tr, err := Fit(X, y, numFeatures(1), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := tr.Predict(X[i]); got != y[i] {
			t.Fatalf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 5, 5}
	tr, err := Fit(X, y, numFeatures(1), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(tr) != 1 {
		t.Fatalf("pure node split anyway: %d leaves", numLeaves(tr))
	}
	if got := tr.Predict([]float64{99}); got != 5 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestConstantFeatureBecomesLeaf(t *testing.T) {
	X := [][]float64{{7}, {7}, {7}}
	y := []float64{1, 2, 3}
	tr, err := Fit(X, y, numFeatures(1), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(tr) != 1 {
		t.Fatal("split on a constant feature")
	}
	if got := tr.Predict([]float64{7}); got != 2 {
		t.Fatalf("Predict = %v, want mean 2", got)
	}
}

func TestMaxDepth(t *testing.T) {
	r := rng.New(1)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64()}
		y[i] = X[i][0] * 10
	}
	tr, err := Fit(X, y, numFeatures(1), Config{MaxDepth: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 3 {
		t.Fatalf("Depth = %d > 3", tr.Depth())
	}
	if numLeaves(tr) > 8 {
		t.Fatalf("NumLeaves = %d > 8", numLeaves(tr))
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	r := rng.New(2)
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64()}
		y[i] = r.Float64()
	}
	tr, err := Fit(X, y, numFeatures(1), Config{MinSamplesLeaf: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range tr.nodes {
		if nd.isLeaf() && tr.count[i] < 10 {
			t.Fatalf("leaf %d holds %d < MinSamplesLeaf samples", i, tr.count[i])
		}
	}
}

func TestMinSamplesSplit(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	tr, err := Fit(X, y, numFeatures(1), Config{MinSamplesSplit: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(tr) != 1 {
		t.Fatal("node below MinSamplesSplit was split")
	}
}

func TestMinImpurityDecrease(t *testing.T) {
	// Tiny variation in y: a huge MinImpurityDecrease must forbid splitting.
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1.0, 1.001, 0.999, 1.0}
	tr, err := Fit(X, y, numFeatures(1), Config{MinImpurityDecrease: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(tr) != 1 {
		t.Fatal("split despite MinImpurityDecrease")
	}
}

func TestStepFunctionRecovery(t *testing.T) {
	// y = 1 for x<0.5, 9 for x>=0.5 — one split should recover it exactly.
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i) / 50
		X = append(X, []float64{v})
		if v < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 9)
		}
	}
	tr, err := Fit(X, y, numFeatures(1), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0.2}); got != 1 {
		t.Fatalf("Predict(0.2) = %v", got)
	}
	if got := tr.Predict([]float64{0.8}); got != 9 {
		t.Fatalf("Predict(0.8) = %v", got)
	}
	if numLeaves(tr) != 2 {
		t.Fatalf("NumLeaves = %d, want 2", numLeaves(tr))
	}
}

func TestTwoFeatureInteraction(t *testing.T) {
	// y = XOR-ish interaction; needs two split levels.
	var X [][]float64
	var y []float64
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			xa, xb := float64(a), float64(b)
			X = append(X, []float64{xa, xb})
			if (xa < 5) != (xb < 5) {
				y = append(y, 100)
			} else {
				y = append(y, 0)
			}
		}
	}
	tr, err := Fit(X, y, numFeatures(2), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := tr.Predict(X[i]); got != y[i] {
			t.Fatalf("XOR not learned at %v: %v != %v", X[i], got, y[i])
		}
	}
}

func TestCategoricalSplit(t *testing.T) {
	fs := []space.Feature{{Name: "c", Kind: space.FeatCategorical, NumCategories: 4}}
	// Categories {0,2} -> 10, {1,3} -> 20. A subset split separates them;
	// a single threshold on the raw code cannot.
	var X [][]float64
	var y []float64
	for rep := 0; rep < 5; rep++ {
		for c := 0; c < 4; c++ {
			X = append(X, []float64{float64(c)})
			if c == 0 || c == 2 {
				y = append(y, 10)
			} else {
				y = append(y, 20)
			}
		}
	}
	tr, err := Fit(X, y, fs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		want := 10.0
		if c == 1 || c == 3 {
			want = 20
		}
		if got := tr.Predict([]float64{float64(c)}); got != want {
			t.Fatalf("cat %d: %v, want %v", c, got, want)
		}
	}
	// With one optimal subset split, the tree should need exactly 2 leaves.
	if numLeaves(tr) != 2 {
		t.Fatalf("NumLeaves = %d, want 2 (subset split)", numLeaves(tr))
	}
}

func TestCategoricalUnseenCategoryGoesRight(t *testing.T) {
	fs := []space.Feature{{Name: "c", Kind: space.FeatCategorical, NumCategories: 5}}
	X := [][]float64{{0}, {0}, {1}, {1}}
	y := []float64{1, 1, 5, 5}
	tr, err := Fit(X, y, fs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Predict([]float64{4}) // category 4 unseen in training
	if got != 1 && got != 5 {
		t.Fatalf("unseen category predicted %v", got)
	}
}

func TestLeafStatsVariance(t *testing.T) {
	X := [][]float64{{1}, {1}, {1}, {2}}
	y := []float64{3, 5, 7, 100}
	tr, err := Fit(X, y, numFeatures(1), Config{MinSamplesLeaf: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// MinSamplesLeaf=3 prevents any split (right side would be 1 sample);
	// the lone leaf holds all four samples.
	m, v, c := tr.PredictStats([]float64{1})
	if c != 4 {
		t.Fatalf("leaf count = %d", c)
	}
	wantMean := (3.0 + 5 + 7 + 100) / 4
	if math.Abs(m-wantMean) > 1e-9 {
		t.Fatalf("leaf mean = %v", m)
	}
	if v <= 0 {
		t.Fatalf("leaf variance = %v, want > 0", v)
	}
}

func TestRandomSubspaceDeterministic(t *testing.T) {
	r := rng.New(5)
	n, d := 200, 6
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()
		}
		X[i] = row
		y[i] = row[0]*5 + row[1]
	}
	fs := numFeatures(d)
	t1, err := Fit(X, y, fs, Config{MaxFeatures: 2}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Fit(X, y, fs, Config{MaxFeatures: 2}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7, 0.1, 0.9, 0.5, 0.2}
	if t1.Predict(probe) != t2.Predict(probe) {
		t.Fatal("same seed produced different trees")
	}
}

func TestSubspaceSkipsConstantFeatures(t *testing.T) {
	// Feature 0 is constant; mtry=1 must still find splits on feature 1.
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{1, float64(i)}
		y[i] = float64(i)
	}
	tr, err := Fit(X, y, numFeatures(2), Config{MaxFeatures: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(tr) < 2 {
		t.Fatal("constant feature starved the splitter")
	}
}

func TestSplitCounts(t *testing.T) {
	// Only feature 1 is informative.
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	r := rng.New(4)
	for i := range X {
		X[i] = []float64{r.Float64(), float64(i % 10)}
		y[i] = float64(i % 10)
	}
	tr, err := Fit(X, y, numFeatures(2), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.SplitCounts()
	if counts[1] == 0 {
		t.Fatal("informative feature never used")
	}
	if counts[0] > counts[1] {
		t.Fatalf("noise feature used more than signal: %v", counts)
	}
}

func TestNodeCountsConsistent(t *testing.T) {
	r := rng.New(6)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64(), r.Float64()}
		y[i] = math.Sin(X[i][0]*6) + X[i][1]
	}
	tr, err := Fit(X, y, numFeatures(2), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A strictly binary tree satisfies nodes = 2*leaves - 1.
	if len(tr.nodes) != 2*numLeaves(tr)-1 {
		t.Fatalf("nodes=%d leaves=%d not binary-consistent", len(tr.nodes), numLeaves(tr))
	}
}

func TestPredictionWithinTargetRangeProperty(t *testing.T) {
	// Property: tree predictions are convex combinations of training
	// targets, hence within [min(y), max(y)].
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
			y[i] = r.Normal(0, 5)
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		tr, err := Fit(X, y, numFeatures(3), Config{MinSamplesLeaf: 2}, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			p := tr.Predict([]float64{r.Float64(), r.Float64(), r.Float64()})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateXDifferentY(t *testing.T) {
	// Identical feature vectors with different targets (measurement noise
	// on repeated configs) must not break induction.
	X := [][]float64{{1}, {1}, {1}, {2}, {2}}
	y := []float64{1, 2, 3, 10, 12}
	tr, err := Fit(X, y, numFeatures(1), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{1}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Predict(1) = %v, want 2", got)
	}
	if got := tr.Predict([]float64{2}); math.Abs(got-11) > 1e-9 {
		t.Fatalf("Predict(2) = %v, want 11", got)
	}
}

// fitBenchData is the 500×20 numeric training set of the fit and
// predict benchmarks.
func fitBenchData() (X [][]float64, y []float64) {
	r := rng.New(1)
	n, d := 500, 20
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()
		}
		X[i] = row
		y[i] = row[0] + row[1]*row[2]
	}
	return X, y
}

func BenchmarkFit500x20(b *testing.B) {
	X, y := fitBenchData()
	fs := numFeatures(len(X[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, fs, Config{MaxFeatures: 7}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	X, y := fitBenchData()
	tr, err := Fit(X, y, numFeatures(len(X[0])), Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	probe := X[123]
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = tr.Predict(probe)
	}
	_ = sink
}
