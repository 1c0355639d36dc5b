package altune_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/altune"
)

func TestCustomSpaceEndToEnd(t *testing.T) {
	// Exercise the whole public surface on a synthetic problem.
	sp := altune.MustNewSpace(
		altune.Num("threads", 1, 2, 4, 8, 16),
		altune.Cat("schedule", "static", "dynamic", "guided"),
		altune.Bool("pin"),
	)
	ev := altune.EvaluatorFunc(func(ctx context.Context, c altune.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		threads := sp.ValueByName(c, "threads")
		base := 16 / threads
		if sp.NameOf(c, sp.IndexOf("schedule")) == "dynamic" {
			base *= 0.8
		}
		if sp.ValueByName(c, "pin") != 0 {
			base *= 0.9
		}
		return base + 0.1, nil
	})
	pool := sp.SampleConfigs(altune.NewRNG(1), 60)
	res, err := altune.Run(context.Background(), sp, pool, ev, altune.PWU{Alpha: 0.1},
		altune.Params{NInit: 8, NMax: 40, Forest: altune.ForestConfig{NumTrees: 16}},
		altune.NewRNG(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 40 {
		t.Fatalf("labeled %d", len(res.TrainY))
	}
	best := altune.Config{4, 1, 1} // 16 threads, dynamic, pinned
	pred := res.Model.Predict(sp.Encode(best))
	if pred > 5 {
		t.Fatalf("prediction at optimum %v", pred)
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	if len(altune.Benchmarks()) != 14 {
		t.Fatal("registry size wrong")
	}
	if len(altune.KernelBenchmarks()) != 12 || len(altune.ApplicationBenchmarks()) != 2 {
		t.Fatal("split wrong")
	}
	p, err := altune.Benchmark("adi")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "adi" {
		t.Fatal("wrong benchmark")
	}
	if len(altune.BenchmarkNames()) != 14 {
		t.Fatal("names wrong")
	}
}

func TestMetricsExports(t *testing.T) {
	y := []float64{1, 2, 100}
	yhat := []float64{1.5, 2, 0}
	if got := altune.RMSEAtAlpha(y, yhat, 0.34); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("RMSEAtAlpha = %v", got)
	}
	if altune.CumulativeCost(y) != 103 {
		t.Fatal("CumulativeCost wrong")
	}
}

func TestStrategyRegistry(t *testing.T) {
	for _, n := range altune.StrategyNames() {
		s, err := altune.StrategyByName(n, 0.05)
		if err != nil || s.Name() != n {
			t.Fatalf("strategy %s: %v", n, err)
		}
	}
}

func TestScalesAndDataset(t *testing.T) {
	sc := altune.PaperScale()
	if sc.NMax != 500 || sc.Reps != 10 {
		t.Fatalf("paper scale %+v", sc)
	}
	p, _ := altune.Benchmark("gesummv")
	ds, err := altune.BuildDataset(context.Background(), p, 50, 20, altune.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pool) != 50 || len(ds.TestY) != 20 {
		t.Fatal("dataset sizes wrong")
	}
}

func TestQuickExperimentThroughFacade(t *testing.T) {
	p, _ := altune.Benchmark("atax")
	sc := altune.QuickScale()
	sc.PoolSize, sc.TestSize, sc.NMax, sc.Reps = 300, 120, 60, 1
	sc.NBatch, sc.EvalEvery = 10, 25
	cs, err := altune.RunStrategy(context.Background(), p, "PWU", sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Strategy != "PWU" || len(cs.RMSE) == 0 {
		t.Fatal("bad curve set")
	}
}

func TestGPThroughFacade(t *testing.T) {
	sp := altune.MustNewSpace(altune.NumRange("x", 0, 30, 1))
	var X [][]float64
	var y []float64
	r := altune.NewRNG(20)
	for i := 0; i < 80; i++ {
		c := sp.SampleConfig(r)
		X = append(X, sp.Encode(c))
		y = append(y, sp.Value(c, 0)*0.5+1)
	}
	g, err := altune.FitGP(X, y, sp.Features(), altune.GPConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Predict([]float64{10})-6) > 1 {
		t.Fatalf("GP prediction %v", g.Predict([]float64{10}))
	}
}

func TestGPFitterInRun(t *testing.T) {
	p, _ := altune.Benchmark("gesummv")
	ds, err := altune.BuildDataset(context.Background(), p, 200, 100, altune.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := altune.Run(context.Background(), p.Space(), ds.Pool,
		altune.BenchmarkEvaluator(p, altune.NewRNG(22)),
		altune.PWU{Alpha: 0.1},
		altune.Params{NInit: 10, NBatch: 10, NMax: 50, Fitter: altune.GPFitter(altune.GPConfig{})},
		altune.NewRNG(23), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Model.(*altune.GP); !ok {
		t.Fatalf("model is %T, want *altune.GP", res.Model)
	}
}

func TestEIThroughFacade(t *testing.T) {
	s, err := altune.StrategyByName("EI", 0)
	if err != nil || s.Name() != "EI" {
		t.Fatalf("EI: %v", err)
	}
	_ = altune.EI{Xi: 0.1}
}

func TestForestSaveLoadThroughFacade(t *testing.T) {
	sp := altune.MustNewSpace(altune.NumRange("x", 0, 9, 1))
	var X [][]float64
	var y []float64
	r := altune.NewRNG(24)
	for i := 0; i < 60; i++ {
		c := sp.SampleConfig(r)
		X = append(X, sp.Encode(c))
		y = append(y, sp.Value(c, 0))
	}
	f, err := altune.FitForest(X, y, sp.Features(), altune.ForestConfig{NumTrees: 8}, altune.NewRNG(25))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := altune.LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Predict([]float64{4}) != f2.Predict([]float64{4}) {
		t.Fatal("round trip changed prediction")
	}
}

func TestTransferThroughFacade(t *testing.T) {
	source, _ := altune.Benchmark("mvt")
	target, err := altune.KernelOnPlatform("mvt", altune.PlatformC())
	if err != nil {
		t.Fatal(err)
	}
	cfg := altune.DefaultTransferConfig()
	cfg.SourceBudget = 60
	cfg.TargetBudgets = []int{10, 30}
	cfg.PoolSize, cfg.TestSize = 300, 150
	cfg.Forest.NumTrees = 16
	res, err := altune.RunTransfer(context.Background(), source, target, cfg, 26)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Budgets) != 2 || res.TargetPlatform != "C" {
		t.Fatalf("result = %+v", res)
	}
}

func TestPlatformAccessors(t *testing.T) {
	if altune.PlatformA().Name != "A" || altune.PlatformB().Name != "B" || altune.PlatformC().Name != "C" {
		t.Fatal("platform accessors broken")
	}
	if altune.PlatformB().Net.BetaBytesPerSec <= 0 {
		t.Fatal("platform B has no network")
	}
}

func TestForestThroughFacade(t *testing.T) {
	sp := altune.MustNewSpace(altune.NumRange("x", 0, 20, 1))
	var X [][]float64
	var y []float64
	r := altune.NewRNG(7)
	for i := 0; i < 100; i++ {
		c := sp.SampleConfig(r)
		X = append(X, sp.Encode(c))
		y = append(y, sp.Value(c, 0)*2)
	}
	f, err := altune.FitForest(X, y, sp.Features(), altune.ForestConfig{NumTrees: 16, Uncertainty: altune.TotalVariance}, altune.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := f.PredictWithUncertainty([]float64{10})
	if math.Abs(mu-20) > 5 || sigma < 0 {
		t.Fatalf("facade forest mu=%v sigma=%v", mu, sigma)
	}
}
