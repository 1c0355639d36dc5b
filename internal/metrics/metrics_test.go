package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestRMSE: at α = 1 every sample is in the top set, so RMSE@α is the
// plain RMSE.
func TestRMSE(t *testing.T) {
	y := []float64{1, 2, 3}
	yhat := []float64{1, 2, 3}
	if got := RMSEAtAlpha(y, yhat, 1); got != 0 {
		t.Fatalf("perfect RMSE = %v", got)
	}
	yhat2 := []float64{2, 3, 4}
	if got := RMSEAtAlpha(y, yhat2, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("unit-offset RMSE = %v", got)
	}
	if !math.IsNaN(RMSEAtAlpha(nil, nil, 1)) {
		t.Fatal("empty RMSE should be NaN")
	}
}

func TestRMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RMSEAtAlpha([]float64{1}, []float64{1, 2}, 1)
}

func TestTopAlphaIndices(t *testing.T) {
	y := []float64{5, 1, 3, 2, 4}  // best (smallest) first: indices 1,3,2,0? no: 1(1),3(2),2(3),4(4),0(5)
	idx := TopAlphaIndices(y, 0.4) // m = 2
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("TopAlphaIndices = %v", idx)
	}
}

func TestTopAlphaMinimumOne(t *testing.T) {
	y := []float64{3, 1, 2}
	idx := TopAlphaIndices(y, 0.01) // ⌊3*0.01⌋ = 0 -> forced to 1
	if len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("TopAlphaIndices = %v", idx)
	}
}

func TestTopAlphaFull(t *testing.T) {
	y := []float64{3, 1, 2}
	idx := TopAlphaIndices(y, 1)
	if len(idx) != 3 {
		t.Fatalf("alpha=1 returned %d indices", len(idx))
	}
}

func TestTopAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha=%v did not panic", a)
				}
			}()
			TopAlphaIndices([]float64{1}, a)
		}()
	}
}

func TestRMSEAtAlphaOnlyTopMatters(t *testing.T) {
	// Predictions are perfect on the fast half, terrible on the slow half.
	y := []float64{1, 2, 100, 200}
	yhat := []float64{1, 2, 0, 0}
	if got := RMSEAtAlpha(y, yhat, 0.5); got != 0 {
		t.Fatalf("top-half RMSE = %v, want 0", got)
	}
	if got := RMSEAtAlpha(y, yhat, 1); got == 0 {
		t.Fatal("overall RMSE should be nonzero")
	}
}

func TestRMSEAtAlphaValue(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	yhat := []float64{2, 2, 3, 4} // error only on the single best sample
	got := RMSEAtAlpha(y, yhat, 0.25)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("RMSE@0.25 = %v", got)
	}
}

func TestCumulativeCost(t *testing.T) {
	if got := CumulativeCost([]float64{1.5, 2.5, 3}); got != 7 {
		t.Fatalf("CC = %v", got)
	}
	if got := CumulativeCost(nil); got != 0 {
		t.Fatalf("empty CC = %v", got)
	}
}

func TestFirstReach(t *testing.T) {
	c := Curve{Samples: []int{1, 2, 3}, Values: []float64{9, 4, 2}}
	if i := c.FirstReach(4); i != 1 {
		t.Fatalf("FirstReach(4) = %d", i)
	}
	if i := c.FirstReach(1); i != -1 {
		t.Fatalf("FirstReach(1) = %d", i)
	}
}

func TestCostToReach(t *testing.T) {
	rmse := Curve{Samples: []int{1, 2, 3}, Values: []float64{9, 4, 2}}
	cost := Curve{Samples: []int{1, 2, 3}, Values: []float64{10, 25, 60}}
	if v, ok := CostToReach(rmse, cost, 4); !ok || v != 25 {
		t.Fatalf("CostToReach = %v, %v", v, ok)
	}
	if _, ok := CostToReach(rmse, cost, 0.5); ok {
		t.Fatal("unreachable target reported reached")
	}
}

func TestSpeedupToTarget(t *testing.T) {
	// Method reaches RMSE 2 at cost 50; baseline reaches 2*1.05 at cost 200.
	m := Curve{Samples: []int{1, 2}, Values: []float64{5, 2}}
	mc := Curve{Samples: []int{1, 2}, Values: []float64{10, 50}}
	b := Curve{Samples: []int{1, 2, 3}, Values: []float64{9, 4, 2.05}}
	bc := Curve{Samples: []int{1, 2, 3}, Values: []float64{40, 120, 200}}
	sp, target, ok := SpeedupToTarget(m, mc, b, bc, 1.05)
	if !ok {
		t.Fatal("speedup not computed")
	}
	if math.Abs(target-2.05*1.05) > 1e-12 {
		t.Fatalf("target = %v", target)
	}
	if math.Abs(sp-200.0/50) > 1e-9 {
		t.Fatalf("speedup = %v", sp)
	}
}

func TestSpeedupEmptyCurves(t *testing.T) {
	if _, _, ok := SpeedupToTarget(Curve{}, Curve{}, Curve{}, Curve{}, 1.05); ok {
		t.Fatal("empty curves produced a speedup")
	}
}

func TestRMSEAtAlphaSubsetProperty(t *testing.T) {
	// Property: RMSE@α depends only on the top-⌊nα⌋ samples — corrupting
	// predictions of slow samples cannot change it.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(100)
		y := make([]float64, n)
		yhat := make([]float64, n)
		for i := range y {
			y[i] = 1 + r.Float64()*99
			yhat[i] = y[i] + r.Normal(0, 3)
		}
		alpha := 0.1
		base := RMSEAtAlpha(y, yhat, alpha)
		idx := TopAlphaIndices(y, alpha)
		top := map[int]bool{}
		for _, i := range idx {
			top[i] = true
		}
		corrupted := append([]float64(nil), yhat...)
		for i := range corrupted {
			if !top[i] {
				corrupted[i] += 1e6
			}
		}
		return math.Abs(RMSEAtAlpha(y, corrupted, alpha)-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Zero reaching costs are legitimate (free cold-start labels put the
// first checkpoint at cost 0) and must not divide to NaN.
func TestSpeedupZeroCostBoth(t *testing.T) {
	m := Curve{Samples: []int{1, 2}, Values: []float64{1, 1}}
	mc := Curve{Samples: []int{1, 2}, Values: []float64{0, 5}}
	b := Curve{Samples: []int{1, 2}, Values: []float64{1, 1}}
	bc := Curve{Samples: []int{1, 2}, Values: []float64{0, 3}}
	sp, _, ok := SpeedupToTarget(m, mc, b, bc, 1.05)
	if !ok {
		t.Fatal("zero-cost curves rejected")
	}
	if sp != 1 {
		t.Fatalf("speedup = %v, want 1 when neither method paid anything", sp)
	}
}

func TestSpeedupZeroCostMethodOnly(t *testing.T) {
	m := Curve{Samples: []int{1, 2}, Values: []float64{1, 1}}
	mc := Curve{Samples: []int{1, 2}, Values: []float64{0, 5}}
	b := Curve{Samples: []int{1, 2}, Values: []float64{9, 1}}
	bc := Curve{Samples: []int{1, 2}, Values: []float64{4, 7}}
	sp, _, ok := SpeedupToTarget(m, mc, b, bc, 1.05)
	if !ok {
		t.Fatal("zero-cost method rejected")
	}
	if !math.IsInf(sp, 1) {
		t.Fatalf("speedup = %v, want +Inf when only the method was free", sp)
	}
}

// TestRMSEAtMatchesRMSEAtAlpha: the index set ranked once and reused
// across predictions gives exactly RMSEAtAlpha, ties in y included.
func TestRMSEAtMatchesRMSEAtAlpha(t *testing.T) {
	r := rng.New(5)
	y := make([]float64, 97)
	for i := range y {
		y[i] = float64(r.Intn(20)) // many ties
	}
	for _, alpha := range []float64{0.01, 0.05, 0.3, 1} {
		idx := TopAlphaIndices(y, alpha)
		for rep := 0; rep < 5; rep++ {
			yhat := make([]float64, len(y))
			for i := range yhat {
				yhat[i] = y[i] + r.Norm()
			}
			if got, want := RMSEAt(y, yhat, idx), RMSEAtAlpha(y, yhat, alpha); got != want {
				t.Fatalf("alpha %v: RMSEAt %v, RMSEAtAlpha %v", alpha, got, want)
			}
		}
	}
	if !math.IsNaN(RMSEAt(nil, nil, nil)) {
		t.Fatal("empty index set should give NaN")
	}
}
