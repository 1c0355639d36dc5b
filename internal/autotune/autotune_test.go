package autotune

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/forest"
	"repro/internal/stats"

	"repro/internal/rng"
)

func smallCfg() Config {
	cfg := Default()
	cfg.PoolSize = 600
	cfg.ModelBudget = 120
	cfg.SearchBudget = 4000
	cfg.Forest = forest.Config{NumTrees: 32}
	return cfg
}

func TestValidation(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.ModelBudget = 5
	if _, err := Tune(context.Background(), p, cfg, 1); err == nil {
		t.Fatal("tiny model budget accepted")
	}
	cfg = smallCfg()
	cfg.Verify = 0
	if _, err := Tune(context.Background(), p, cfg, 1); err == nil {
		t.Fatal("zero verify accepted")
	}
	cfg = smallCfg()
	cfg.Searcher = "bogus"
	if _, err := Tune(context.Background(), p, cfg, 1); err == nil {
		t.Fatal("unknown searcher accepted")
	}
}

func TestTuneBeatsRandomSample(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Tune(context.Background(), p, smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the tuned config against the space's distribution.
	r := rng.New(3)
	times := make([]float64, 500)
	for i := range times {
		times[i] = p.TrueTime(p.Space().SampleConfig(r))
	}
	p5 := stats.Quantile(times, 0.05)
	if out.BestMeasured > p5 {
		t.Fatalf("tuned config %.4g not within the top 5%% (%.4g)", out.BestMeasured, p5)
	}
	if out.Speedup < 1 {
		t.Fatalf("speedup %v below 1 against the default config", out.Speedup)
	}
	if out.RealRuns > smallCfg().ModelBudget+smallCfg().Verify+1 {
		t.Fatalf("real runs %d exceed budget", out.RealRuns)
	}
	if out.SearchEvaluations != smallCfg().SearchBudget {
		t.Fatalf("search evaluations %d", out.SearchEvaluations)
	}
}

func TestTuneDeterministic(t *testing.T) {
	p, _ := bench.ByName("mvt")
	a, err := Tune(context.Background(), p, smallCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(context.Background(), p, smallCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Key() != b.Best.Key() || a.BestMeasured != b.BestMeasured {
		t.Fatal("tuning not deterministic")
	}
}

func TestAllSearchersWork(t *testing.T) {
	p, _ := bench.ByName("gesummv")
	for _, s := range []string{"random", "hill", "anneal"} {
		cfg := smallCfg()
		cfg.Searcher = s
		cfg.SearchBudget = 1500
		out, err := Tune(context.Background(), p, cfg, 5)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out.Best == nil || out.BestMeasured <= 0 {
			t.Fatalf("%s: bad outcome %+v", s, out)
		}
	}
}

func TestWorksOnApplications(t *testing.T) {
	p, _ := bench.ByName("kripke")
	cfg := smallCfg()
	out, err := Tune(context.Background(), p, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	// kripke's default config is serial (1 process); any sensible tuning
	// result is far faster.
	if out.Speedup < 5 {
		t.Fatalf("kripke speedup only %.1fx (best %s)", out.Speedup, p.Space().String(out.Best))
	}
}
