package forest

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tree"
)

func quantileForest(t *testing.T, noise float64) (*Forest, *rng.RNG) {
	t.Helper()
	r := rng.New(1)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64()}
		y[i] = 10*X[i][0] + r.Normal(0, noise)
	}
	f, err := Fit(X, y, numFeatures(1), Config{
		NumTrees: 32,
		Tree:     tree.Config{KeepTargets: true, MinSamplesLeaf: 20},
	}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return f, r
}

func TestQuantileRequiresKeepTargets(t *testing.T) {
	X, y := friedman(rng.New(3), 50)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 4}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PredictQuantile(X[0], 0.5); err == nil {
		t.Fatal("quantile without KeepTargets accepted")
	}
}

func TestQuantileValidation(t *testing.T) {
	f, _ := quantileForest(t, 1)
	if _, err := f.PredictQuantile([]float64{0.5}, -0.1); err == nil {
		t.Fatal("q<0 accepted")
	}
	if _, err := f.PredictQuantile([]float64{0.5}, 1.1); err == nil {
		t.Fatal("q>1 accepted")
	}
}

func TestQuantilesOrderedAndBracketMedian(t *testing.T) {
	f, _ := quantileForest(t, 1)
	x := []float64{0.5}
	q10, err := f.PredictQuantile(x, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	q50, _ := f.PredictQuantile(x, 0.5)
	q90, _ := f.PredictQuantile(x, 0.9)
	if !(q10 < q50 && q50 < q90) {
		t.Fatalf("quantiles not ordered: %v %v %v", q10, q50, q90)
	}
	// Median should sit near the conditional mean 10*0.5 = 5.
	if math.Abs(q50-5) > 1 {
		t.Fatalf("median %v far from 5", q50)
	}
	// Noise sigma 1: the 10-90 spread should be near 2*1.28.
	spread := q90 - q10
	if spread < 1.5 || spread > 4.5 {
		t.Fatalf("10-90 spread %v implausible for sigma=1", spread)
	}
}

// centralInterval returns the [(1-level)/2, (1+level)/2] quantiles at x.
func centralInterval(f *Forest, x []float64, level float64) (lo, hi float64, err error) {
	tail := (1 - level) / 2
	if lo, err = f.PredictQuantile(x, tail); err != nil {
		return 0, 0, err
	}
	hi, err = f.PredictQuantile(x, 1-tail)
	return lo, hi, err
}

func TestIntervalCoverage(t *testing.T) {
	f, r := quantileForest(t, 1)
	covered, total := 0, 0
	for i := 0; i < 500; i++ {
		x := r.Float64()
		yTrue := 10*x + r.Normal(0, 1)
		lo, hi, err := centralInterval(f, []float64{x}, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("interval inverted: [%v, %v]", lo, hi)
		}
		if yTrue >= lo && yTrue <= hi {
			covered++
		}
		total++
	}
	cov := float64(covered) / float64(total)
	if cov < 0.80 || cov > 0.99 {
		t.Fatalf("90%% interval covered %.1f%%", cov*100)
	}
}

func TestQuantileSurvivesSerialization(t *testing.T) {
	f, _ := quantileForest(t, 1)
	x := []float64{0.5}
	before, err := f.PredictQuantile(x, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after, err := f2.PredictQuantile(x, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("quantile changed across round trip: %v vs %v", before, after)
	}
}

func TestQuantileNoiseFreeDegenerates(t *testing.T) {
	// Without noise all leaf targets in a region are almost equal:
	// interval collapses.
	f, _ := quantileForest(t, 0)
	lo, hi, err := centralInterval(f, []float64{0.5}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo > 1 {
		t.Fatalf("noise-free interval [%v, %v] too wide", lo, hi)
	}
}
