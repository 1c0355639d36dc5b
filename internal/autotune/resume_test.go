package autotune

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/runstate"
)

// TestTuneCheckpointResume proves the pipeline-level resume contract:
// an interrupted model phase leaves a snapshot behind, and rerunning
// Tune with the same inputs picks it up and lands on the exact outcome
// of a never-interrupted run.
//
// The interruption is staged deterministically: the test rebuilds the
// model phase exactly as Tune wires it (same seed-derived RNG splits,
// the same lazily generated pool source, same params) and drives it
// through core.Run, cancelling via an observer after a few iterations,
// so a real drain snapshot lands at the checkpoint path.
func TestTuneCheckpointResume(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	const seed = 77

	want, err := Tune(context.Background(), p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")
	r := rng.New(seed)
	ev := bench.Evaluator(p, r.Split())
	src := pool.NewUniform(p.Space(), r.Split().Seed(), cfg.PoolSize)
	params := core.Params{
		NInit: 10, NBatch: 5, NMax: cfg.ModelBudget,
		Forest: cfg.Forest, Failure: cfg.Failure,
		CheckpointEvery: 10, Checkpoint: runstate.FileSink(ckpt),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = core.Run(ctx, src, ev, core.PWU{Alpha: cfg.Alpha}, params, r.Split(),
		func(s *core.State) error {
			if s.Iteration == 4 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("staged interruption returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	cfg.CheckpointPath = ckpt
	got, err := Tune(context.Background(), p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Key() != want.Best.Key() {
		t.Fatalf("resumed best %v, fresh best %v", got.Best, want.Best)
	}
	if got.BestMeasured != want.BestMeasured || got.PredictedBest != want.PredictedBest {
		t.Fatalf("resumed outcome (%v, %v) differs from fresh (%v, %v)",
			got.BestMeasured, got.PredictedBest, want.BestMeasured, want.PredictedBest)
	}
	if got.ModelCost != want.ModelCost || got.RealRuns != want.RealRuns {
		t.Fatalf("resumed accounting (cost %v, runs %d) differs from fresh (cost %v, runs %d)",
			got.ModelCost, got.RealRuns, want.ModelCost, want.RealRuns)
	}
	if got.SearchEvaluations != want.SearchEvaluations {
		t.Fatalf("search evaluations %d vs %d", got.SearchEvaluations, want.SearchEvaluations)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatal("completed run did not clear its checkpoint")
	}
}

// TestTuneRejectsForeignCheckpoint: a snapshot from a different run
// (different pool fingerprint) must be refused, not silently continued.
func TestTuneRejectsForeignCheckpoint(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")

	// Stage an interrupted run under one seed...
	cfg := smallCfg()
	cfg.CheckpointPath = ckpt
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Tune(ctx, p, cfg, 5); err == nil {
		t.Fatal("pre-cancelled Tune succeeded")
	}
	// A pre-cancelled run may or may not have reached the cold start;
	// ensure a snapshot exists by staging a real one when it did not.
	if _, statErr := os.Stat(ckpt); statErr != nil {
		r := rng.New(5)
		ev := bench.Evaluator(p, r.Split())
		src := pool.NewUniform(p.Space(), r.Split().Seed(), cfg.PoolSize)
		params := core.Params{
			NInit: 10, NBatch: 5, NMax: cfg.ModelBudget,
			Forest: cfg.Forest, Failure: cfg.Failure,
			CheckpointEvery: 10, Checkpoint: runstate.FileSink(ckpt),
		}
		ictx, icancel := context.WithCancel(context.Background())
		defer icancel()
		_, runErr := core.Run(ictx, src, ev, core.PWU{Alpha: cfg.Alpha}, params, r.Split(),
			func(s *core.State) error {
				if s.Iteration == 2 {
					icancel()
				}
				return nil
			})
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("staging run returned %v", runErr)
		}
	}

	// ...then resume under a different seed: the regenerated pool no
	// longer matches the snapshot's fingerprint.
	if _, err := Tune(context.Background(), p, cfg, 6); err == nil {
		t.Fatal("checkpoint from seed 5 accepted by a seed-6 run")
	}
}

// TestTuneColdStartsOverCorruptCheckpoint: a damaged checkpoint file
// must not brick the pipeline — Tune warns, starts cold, and lands on
// the exact outcome of a run that never had a checkpoint; the wreckage
// is cleared on completion.
func TestTuneColdStartsOverCorruptCheckpoint(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	const seed = 88
	want, err := Tune(context.Background(), p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"version":1,"iter`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = ckpt
	var warned bool
	cfg.Logf = func(format string, args ...interface{}) { warned = true }
	got, err := Tune(context.Background(), p, cfg, seed)
	if err != nil {
		t.Fatalf("corrupt checkpoint bricked the pipeline: %v", err)
	}
	if !warned {
		t.Fatal("cold start over a corrupt checkpoint emitted no warning")
	}
	if got.Best.Key() != want.Best.Key() || got.BestMeasured != want.BestMeasured {
		t.Fatalf("cold-started outcome (%v, %v) differs from checkpoint-free run (%v, %v)",
			got.Best, got.BestMeasured, want.Best, want.BestMeasured)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatal("completed run did not clear the corrupt checkpoint")
	}
}

// TestTuneChaosTransparent: a transient-only scenario, fully retried,
// must leave the tuning outcome bit-identical to the fault-free run —
// the pipeline-level face of the chaos-equivalence property.
func TestTuneChaosTransparent(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	const seed = 91
	want, err := Tune(context.Background(), p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos.Scenario{ErrRate: 0.25, Seed: 3}
	cfg.Failure = core.FailurePolicy{MaxRetries: 20}
	got, err := Tune(context.Background(), p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Key() != want.Best.Key() || got.BestMeasured != want.BestMeasured ||
		got.ModelCost != want.ModelCost || got.Speedup != want.Speedup {
		t.Fatalf("chaotic outcome (%v, %v, %v) differs from clean (%v, %v, %v)",
			got.Best, got.BestMeasured, got.ModelCost, want.Best, want.BestMeasured, want.ModelCost)
	}
}
