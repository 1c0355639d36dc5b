package autotune

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/forest"
)

// TestStreamMatchesInMemory: the streamed pipeline must produce the exact
// outcome of the in-memory one for the same seed — the lazy pool source
// replays the identical candidate sequence and every generator draw lines
// up, so the whole pipeline (model, search, verify) is unchanged. With
// WarmUpdate the streamed scans also run through the cross-scan cache,
// whose cached panels re-aggregate bit-identically, so warm tuning must
// match too; the two settings run as the subtests cold and warm.
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
			for _, shard := range []int{0, 64} {
				s := cfg
				s.Stream = true
				s.StreamShard = shard
				got, err := Tune(context.Background(), p, s, 7)
				if err != nil {
					t.Fatalf("shard=%d: %v", shard, err)
				}
				if got.Best.Key() != want.Best.Key() {
					t.Fatalf("shard=%d: streamed best %v, in-memory best %v", shard, got.Best, want.Best)
				}
				if got.BestMeasured != want.BestMeasured || got.ModelCost != want.ModelCost ||
					got.RealRuns != want.RealRuns || got.SearchEvaluations != want.SearchEvaluations {
					t.Fatalf("shard=%d: streamed outcome %+v, in-memory %+v", shard, got, want)
				}
			}
		})
	}
}
