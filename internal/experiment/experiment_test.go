package experiment

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/space"
)

func TestCheckpointSizes(t *testing.T) {
	sc := Scale{NInit: 10, NBatch: 1, NMax: 20, EvalEvery: 1}
	got := checkpointSizes(sc)
	want := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints = %v", got)
		}
	}
}

func TestCheckpointSizesThinned(t *testing.T) {
	sc := Scale{NInit: 10, NBatch: 5, NMax: 50, EvalEvery: 10}
	got := checkpointSizes(sc)
	want := []int{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints = %v", got)
		}
	}
}

func TestCheckpointAlwaysIncludesNMax(t *testing.T) {
	sc := Scale{NInit: 10, NBatch: 7, NMax: 33, EvalEvery: 100}
	got := checkpointSizes(sc)
	if got[len(got)-1] != 33 {
		t.Fatalf("last checkpoint = %d, want NMax", got[len(got)-1])
	}
}

func TestRunStrategySmoke(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	cs, err := RunStrategy(context.Background(), p, "PWU", sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Benchmark != "atax" || cs.Strategy != "PWU" || cs.Alpha != sc.Alpha {
		t.Fatalf("metadata = %+v", cs)
	}
	if len(cs.Samples) != len(cs.RMSE) || len(cs.Samples) != len(cs.CC) || len(cs.Samples) != len(cs.RMSEStd) {
		t.Fatal("curve lengths inconsistent")
	}
	if cs.Samples[0] != sc.NInit || cs.Samples[len(cs.Samples)-1] != sc.NMax {
		t.Fatalf("sample range %v", cs.Samples)
	}
	for i, v := range cs.RMSE {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("RMSE[%d] = %v", i, v)
		}
	}
	// CC must be strictly increasing: every label adds positive time.
	for i := 1; i < len(cs.CC); i++ {
		if cs.CC[i] <= cs.CC[i-1] {
			t.Fatalf("CC not increasing at %d: %v", i, cs.CC)
		}
	}
}

func TestRunStrategyDeterministic(t *testing.T) {
	p, _ := bench.ByName("mvt")
	sc := Smoke()
	a, err := RunStrategy(context.Background(), p, "MaxU", sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStrategy(context.Background(), p, "MaxU", sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.RMSE {
		if a.RMSE[i] != b.RMSE[i] || a.CC[i] != b.CC[i] {
			t.Fatalf("experiment not deterministic at checkpoint %d", i)
		}
	}
}

func TestRunStrategySeedsMatter(t *testing.T) {
	p, _ := bench.ByName("mvt")
	sc := Smoke()
	a, _ := RunStrategy(context.Background(), p, "Random", sc, 1)
	b, _ := RunStrategy(context.Background(), p, "Random", sc, 2)
	same := true
	for i := range a.RMSE {
		if a.RMSE[i] != b.RMSE[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical curves")
	}
}

func TestRunAllOrder(t *testing.T) {
	p, _ := bench.ByName("gesummv")
	names := []string{"PWU", "Random"}
	out, err := RunAll(context.Background(), p, names, Smoke(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Strategy != "PWU" || out[1].Strategy != "Random" {
		t.Fatalf("RunAll order wrong: %v, %v", out[0].Strategy, out[1].Strategy)
	}
}

func TestRunAllUnknownStrategy(t *testing.T) {
	p, _ := bench.ByName("gesummv")
	if _, err := RunAll(context.Background(), p, []string{"Nope"}, Smoke(), 3); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestLearningCurveImproves(t *testing.T) {
	// With enough labels, the final RMSE should beat the cold-start RMSE
	// for a sane strategy on an easy kernel.
	p, _ := bench.ByName("atax")
	sc := Smoke()
	sc.NMax = 120
	sc.PoolSize = 500
	cs, err := RunStrategy(context.Background(), p, "Random", sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	first, last := cs.RMSE[0], cs.RMSE[len(cs.RMSE)-1]
	if last >= first {
		t.Fatalf("no learning: RMSE %v -> %v", first, last)
	}
}

func TestSelectionScatter(t *testing.T) {
	p, _ := bench.ByName("atax")
	sc := Smoke()
	s, err := SelectionScatter(context.Background(), p, "PWU", sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PoolMu) != sc.PoolSize || len(s.PoolSigma) != sc.PoolSize {
		t.Fatalf("pool scatter %d points", len(s.PoolMu))
	}
	if len(s.SelMu) != sc.NMax-sc.NInit {
		t.Fatalf("selection scatter %d points, want %d", len(s.SelMu), sc.NMax-sc.NInit)
	}
	for i := range s.SelMu {
		if s.SelSigma[i] < 0 || math.IsNaN(s.SelMu[i]) {
			t.Fatalf("bad selection point %d", i)
		}
	}
}

func TestPWUSpeedups(t *testing.T) {
	p, _ := bench.ByName("atax")
	rows, err := PWUSpeedups(context.Background(), []bench.Problem{p}, Smoke(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "atax" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].OK && (rows[0].Speedup <= 0 || math.IsInf(rows[0].Speedup, 0)) {
		t.Fatalf("speedup = %v", rows[0].Speedup)
	}
}

func TestScalePresetsSane(t *testing.T) {
	for _, sc := range []Scale{Paper(), Quick(), Smoke()} {
		if sc.PoolSize <= sc.NMax {
			t.Fatalf("pool %d not larger than NMax %d", sc.PoolSize, sc.NMax)
		}
		if sc.NInit >= sc.NMax || sc.Reps < 1 || sc.Alpha <= 0 || sc.Alpha > 1 {
			t.Fatalf("bad scale %+v", sc)
		}
	}
	p := Paper()
	if p.PoolSize != 7000 || p.TestSize != 3000 || p.NInit != 10 || p.NBatch != 1 || p.NMax != 500 || p.Reps != 10 {
		t.Fatalf("Paper() deviates from §III-D: %+v", p)
	}
}

func TestCheckpointSizesEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		sc   Scale
		want []int
	}{
		{"init equals max", Scale{NInit: 20, NBatch: 5, NMax: 20, EvalEvery: 1}, []int{20}},
		{"eval every exceeds range", Scale{NInit: 10, NBatch: 1, NMax: 15, EvalEvery: 100}, []int{10, 15}},
		{"batch overshoots max", Scale{NInit: 10, NBatch: 7, NMax: 20, EvalEvery: 1}, []int{10, 17, 20}},
		{"zero eval every defaults to one", Scale{NInit: 3, NBatch: 2, NMax: 9, EvalEvery: 0}, []int{3, 5, 7, 9}},
		{"thinning skips then forces max", Scale{NInit: 10, NBatch: 3, NMax: 20, EvalEvery: 5}, []int{10, 16, 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkpointSizes(tc.sc)
			if len(got) != len(tc.want) {
				t.Fatalf("checkpoints = %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("checkpoints = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// noPoolModel hides the forest's scorer capabilities (concurrent
// ScoreBatch, per-slot scoring) so core.Run scores candidates — and the
// harness scores the held-out set — through plain PredictBatch, with no
// cross-scan cache.
type noPoolModel struct{ f *forest.Forest }

func (m noPoolModel) Predict(x []float64) float64 { return m.f.Predict(x) }
func (m noPoolModel) PredictBatch(X [][]float64) (mu, sigma []float64) {
	return m.f.PredictBatch(X)
}

// noPoolUpdatable additionally forwards warm updates.
type noPoolUpdatable struct{ noPoolModel }

func (m noPoolUpdatable) Update(X [][]float64, y []float64, r *rng.RNG) error {
	return m.f.Update(X, y, r)
}

// TestEngineSwapCurvesIdentical runs the same PWU experiment on the
// forest's scoring engine and on the plain batch engine, cold and warm;
// the learning curves must be byte-identical, proving the engine — and,
// in warm mode, the cross-scan caches over the pool and the held-out
// set — is invisible to the science.
func TestEngineSwapCurvesIdentical(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		sc := Smoke()
		sc.WarmUpdate = warm
		base, err := RunStrategy(context.Background(), p, "PWU", sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		swapped := sc
		swapped.Fitter = func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (core.Model, error) {
			f, err := forest.Fit(X, y, fs, sc.Forest, r)
			if err != nil {
				return nil, err
			}
			return noPoolUpdatable{noPoolModel{f}}, nil
		}
		alt, err := RunStrategy(context.Background(), p, "PWU", swapped, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.RMSE) != len(alt.RMSE) {
			t.Fatalf("warm=%v: curve lengths differ: %d vs %d", warm, len(base.RMSE), len(alt.RMSE))
		}
		for i := range base.RMSE {
			if base.RMSE[i] != alt.RMSE[i] || base.CC[i] != alt.CC[i] || base.RMSEStd[i] != alt.RMSEStd[i] {
				t.Fatalf("warm=%v checkpoint %d: (%v,%v,%v) vs (%v,%v,%v)", warm, i,
					base.RMSE[i], base.CC[i], base.RMSEStd[i], alt.RMSE[i], alt.CC[i], alt.RMSEStd[i])
			}
		}
	}
}
