// Integration tests: cross-module checks of the paper's headline claims
// at reduced scale. These complement the per-package unit tests — each
// one exercises the full pipeline (benchmark substrate → dataset →
// Algorithm 1 → metrics) the way cmd/figures does.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// integrationScale trades fidelity for runtime; assertions below are
// chosen to be robust at this size.
func integrationScale() experiment.Scale {
	sc := experiment.Smoke()
	sc.Reps = 3
	sc.NMax = 100
	sc.PoolSize = 600
	sc.TestSize = 300
	return sc
}

func TestPWUBeatsPBUSOnMostKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sc := integrationScale()
	kernels := []string{"atax", "mvt", "gesummv", "jacobi", "mm", "adi"}
	wins := 0
	for _, name := range kernels {
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := experiment.RunAll(context.Background(), p, []string{"PWU", "PBUS"}, sc, 101)
		if err != nil {
			t.Fatal(err)
		}
		pwu := cs[0].RMSE[len(cs[0].RMSE)-1]
		pbus := cs[1].RMSE[len(cs[1].RMSE)-1]
		if pwu < pbus {
			wins++
		}
		t.Logf("%s: PWU %.4g vs PBUS %.4g", name, pwu, pbus)
	}
	// Paper: PWU wins on "all but one program". At smoke scale allow one
	// more upset.
	if wins < len(kernels)-2 {
		t.Fatalf("PWU won only %d/%d kernels", wins, len(kernels))
	}
}

func TestExploitOnlySamplersAreCheapButInaccurate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sc := integrationScale()
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := experiment.RunAll(context.Background(), p, []string{"BestPerf", "MaxU"}, sc, 102)
	if err != nil {
		t.Fatal(err)
	}
	best, maxu := cs[0], cs[1]
	// The Fig. 3 shape: MaxU pays multiples of BestPerf's labeling cost.
	if maxu.CC[len(maxu.CC)-1] < 2*best.CC[len(best.CC)-1] {
		t.Fatalf("MaxU cost %v not clearly above BestPerf %v",
			maxu.CC[len(maxu.CC)-1], best.CC[len(best.CC)-1])
	}
}

func TestFig9ShapePWUExploresMoreThanPBUS(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sc := integrationScale()
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	frac := func(strategy string) float64 {
		s, err := experiment.SelectionScatter(context.Background(), p, strategy, sc, 103)
		if err != nil {
			t.Fatal(err)
		}
		med := medianOf(s.PoolSigma)
		hi := 0
		for _, v := range s.SelSigma {
			if v > med {
				hi++
			}
		}
		return float64(hi) / float64(len(s.SelSigma))
	}
	pwu, pbus := frac("PWU"), frac("PBUS")
	if pwu <= pbus {
		t.Fatalf("PWU high-sigma fraction %.2f not above PBUS %.2f", pwu, pbus)
	}
}

func TestEndToEndModelPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p, err := bench.ByName("gesummv")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(104)
	ds, err := dataset.Build(context.Background(), p, 400, 200, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: 0.05},
		core.Params{NInit: 10, NBatch: 10, NMax: 80, Forest: forest.Config{NumTrees: 16}}, r.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := res.Model.(*forest.Forest)
	if !ok {
		t.Fatalf("default surrogate is %T, want *forest.Forest", res.Model)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := forest.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := f.PredictBatch(ds.TestX())
	loaded, _ := f2.PredictBatch(ds.TestX())
	for i := range orig {
		if orig[i] != loaded[i] {
			t.Fatal("reloaded model predicts differently")
		}
	}
	// The persisted model is still a usable surrogate.
	rmse := metrics.RMSEAtAlpha(ds.TestY, loaded, 0.1)
	if rmse <= 0 || rmse > 100 {
		t.Fatalf("reloaded model RMSE@0.1 = %v", rmse)
	}
}

func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p, err := bench.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []float64 {
		sc := integrationScale()
		sc.Workers = workers
		sc.Forest.Workers = workers
		cs, err := experiment.RunStrategy(context.Background(), p, "PWU", sc, 105)
		if err != nil {
			t.Fatal(err)
		}
		return cs.RMSE
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("checkpoint %d differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNoisyLabelsStillConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Failure injection: crank the measurement noise an order of
	// magnitude above the protocol's and verify the pipeline still
	// learns (robustness to noise is one of the paper's §II-B claims
	// for forests).
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(106)
	ds, err := dataset.Build(context.Background(), p, 500, 250, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	nr := r.Split()
	ev := core.EvaluatorFunc(func(ctx context.Context, c space.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return p.TrueTime(c) * nr.LogNormal(-0.5*0.3*0.3, 0.3), nil
	})
	res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), ev, core.PWU{Alpha: 0.1},
		core.Params{NInit: 10, NBatch: 10, NMax: 120, Forest: forest.Config{NumTrees: 32}}, r.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := res.Model.PredictBatch(ds.TestX())
	got := metrics.RMSEAtAlpha(ds.TestTrue, pred, 0.1)
	// The test labels here are the noise-free truth; the model trained
	// on very noisy labels should still land within a loose bound.
	if got > 0.5 {
		t.Fatalf("RMSE %v under heavy noise; no convergence", got)
	}
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
