package autotune

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
)

// TestStreamMatchesInMemory: the pipeline's model phase streams its pool
// lazily from a pool.Uniform source. It must land exactly where the same
// phase over the materialized pool (SampleConfigs wrapped in a
// pool.Slice, rebuilt here exactly as Tune wires the phase) lands — same
// labels, same surrogate — and the whole outcome must be invariant
// across shard sizes. With WarmUpdate the scans also run through the
// cross-scan cache, whose cached panels re-aggregate bit-identically, so
// warm tuning must match too; the two settings run as the subtests cold
// and warm.
func TestStreamMatchesInMemory(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Default()
			cfg.PoolSize = 400
			cfg.ModelBudget = 60
			cfg.SearchBudget = 1500
			cfg.Forest = forest.Config{NumTrees: 16}
			cfg.WarmUpdate = warm

			want, err := Tune(context.Background(), p, cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, shard := range []int{64, 1000} {
				s := cfg
				s.StreamShard = shard
				got, err := Tune(context.Background(), p, s, 7)
				if err != nil {
					t.Fatalf("shard=%d: %v", shard, err)
				}
				if got.Best.Key() != want.Best.Key() || got.BestMeasured != want.BestMeasured ||
					got.ModelCost != want.ModelCost || got.RealRuns != want.RealRuns ||
					got.SearchEvaluations != want.SearchEvaluations || got.PredictedBest != want.PredictedBest {
					t.Fatalf("shard=%d: outcome %+v, default shard %+v", shard, got, want)
				}
			}

			r := rng.New(7)
			sp := p.Space()
			ev := bench.Evaluator(p, r.Split())
			mem := sp.SampleConfigs(r.Split(), cfg.PoolSize)
			params := core.Params{
				NInit: 10, NBatch: 5, NMax: cfg.ModelBudget,
				Forest: cfg.Forest, Failure: cfg.Failure, WarmUpdate: warm,
			}
			res, err := core.Run(context.Background(), pool.NewSlice(sp, mem), ev, core.PWU{Alpha: cfg.Alpha}, params, r.Split(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if cost := metrics.CumulativeCost(res.TrainY); cost != want.ModelCost {
				t.Fatalf("materialized model phase cost %v, streamed %v", cost, want.ModelCost)
			}
			if pred := res.Model.Predict(sp.Encode(want.Best)); pred != want.PredictedBest {
				t.Fatalf("materialized surrogate predicts %v at the winner, streamed %v", pred, want.PredictedBest)
			}
		})
	}
}
