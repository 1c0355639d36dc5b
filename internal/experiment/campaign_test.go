package experiment

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// assertCurvesEqual compares two curve sets bit for bit (curves and
// counted telemetry; wall times naturally differ between runs).
func assertCurvesEqual(t *testing.T, got, want *CurveSet) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil curve set: got=%v want=%v", got, want)
	}
	if got.Benchmark != want.Benchmark || got.Strategy != want.Strategy ||
		got.Alpha != want.Alpha || got.Reps != want.Reps {
		t.Fatalf("header mismatch: got %s/%s α=%v reps=%d, want %s/%s α=%v reps=%d",
			got.Benchmark, got.Strategy, got.Alpha, got.Reps,
			want.Benchmark, want.Strategy, want.Alpha, want.Reps)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: %d checkpoints, want %d", got.Strategy, len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("%s: Samples[%d] = %d, want %d", got.Strategy, i, got.Samples[i], want.Samples[i])
		}
		if got.RMSE[i] != want.RMSE[i] || got.RMSEStd[i] != want.RMSEStd[i] || got.CC[i] != want.CC[i] {
			t.Fatalf("%s: checkpoint %d: (%v,%v,%v) vs (%v,%v,%v)", got.Strategy, i,
				got.RMSE[i], got.RMSEStd[i], got.CC[i], want.RMSE[i], want.RMSEStd[i], want.CC[i])
		}
	}
	if got.Stats.Events != want.Stats.Events || got.Stats.EvalRetries != want.Stats.EvalRetries ||
		got.Stats.EvalSkips != want.Stats.EvalSkips {
		t.Fatalf("%s: telemetry counts diverged: %+v vs %+v", got.Strategy, got.Stats, want.Stats)
	}
}

// TestCampaignMatchesSequential is the equivalence gate: for every
// strategy, the campaign engine (shared datasets, work-stealing pool)
// must reproduce the sequential per-strategy path bit for bit.
func TestCampaignMatchesSequential(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := core.StrategyNames()
	seq, err := RunAllSequential(context.Background(), p, names, sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(context.Background(), p, names, sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("campaign returned %d curve sets, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		assertCurvesEqual(t, par[i], seq[i])
	}
}

// TestCampaignWorkerInvariance checks curves are bit-identical for any
// worker count — the scheduler's determinism contract.
func TestCampaignWorkerInvariance(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Random", "PWU", "BRS"}
	var ref []*CurveSet
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		sc := Smoke()
		sc.Workers = workers
		out, err := RunAll(context.Background(), p, names, sc, 7)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			assertCurvesEqual(t, out[i], ref[i])
		}
	}
}

// TestCampaignDatasetCacheHits checks the single-flight cache arithmetic
// on a real drain: each repetition's dataset is built exactly once, and
// every other strategy at that repetition hits the cached copy.
func TestCampaignDatasetCacheHits(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := []string{"Random", "PWU", "MaxU"}
	res, err := RunCampaign(context.Background(), Campaign{
		Items:      []CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Datasets.Builds != sc.Reps {
		t.Fatalf("Builds = %d, want %d (one per repetition)", res.Datasets.Builds, sc.Reps)
	}
	if want := (len(names) - 1) * sc.Reps; res.Datasets.Hits != want {
		t.Fatalf("Hits = %d, want %d", res.Datasets.Hits, want)
	}
	if want := (len(names) - 1) * sc.Reps * sc.TestSize; res.Datasets.LabelsSaved != want {
		t.Fatalf("LabelsSaved = %d, want %d", res.Datasets.LabelsSaved, want)
	}
	if res.Scheduler.Tasks != len(names)*sc.Reps {
		t.Fatalf("Scheduler.Tasks = %d, want %d", res.Scheduler.Tasks, len(names)*sc.Reps)
	}
}

// TestCampaignWarmUpdate exercises the cached checkpoint-evaluation path
// (each repetition's ScanCache over the shared test set) end to end:
// warm-update campaigns must equal warm-update sequential runs bit for
// bit.
func TestCampaignWarmUpdate(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	sc.WarmUpdate = true
	names := []string{"PWU", "Random"}
	seq, err := RunAllSequential(context.Background(), p, names, sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(context.Background(), p, names, sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		assertCurvesEqual(t, par[i], seq[i])
	}
}

// TestAggregatePartialRepsCount is the regression test for the Reps
// accounting after a cancellation: only repetitions that reached a
// checkpoint contribute, and Reps must say how many did — not sc.Reps.
func TestAggregatePartialRepsCount(t *testing.T) {
	sc := Smoke()
	sc.Reps = 3
	n := len(checkpointSizes(sc))
	full := make([]float64, n)
	for i := range full {
		full[i] = float64(i + 1)
	}
	reps := []repResult{
		{rmse: full, cc: full},
		{rmse: full[:2], cc: full[:2], err: context.Canceled},
		{err: context.Canceled}, // interrupted before its first checkpoint
	}
	cs, err := aggregate(context.Background(), "atax", "PWU", sc, reps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cs == nil {
		t.Fatal("no curve set despite two contributing repetitions")
	}
	if cs.Reps != 2 {
		t.Fatalf("Reps = %d, want 2 (contributing repetitions)", cs.Reps)
	}
	if len(cs.Samples) != 2 {
		t.Fatalf("%d checkpoints, want the contributing reps' common prefix of 2", len(cs.Samples))
	}
	for i := 0; i < 2; i++ {
		if cs.RMSE[i] != full[i] || cs.CC[i] != full[i] {
			t.Fatalf("checkpoint %d: RMSE=%v CC=%v, want %v", i, cs.RMSE[i], cs.CC[i], full[i])
		}
	}

	// No repetition reached a checkpoint: nil set, explanatory error.
	none := []repResult{{err: context.Canceled}, {err: context.Canceled}}
	cs, err = aggregate(context.Background(), "atax", "PWU", sc, none)
	if cs != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cs=%v err=%v, want nil set and context.Canceled", cs, err)
	}
	if !strings.Contains(err.Error(), "before the first checkpoint") {
		t.Fatalf("err = %v", err)
	}

	// The uncancelled path still reports every repetition.
	fullReps := []repResult{{rmse: full, cc: full}, {rmse: full, cc: full}, {rmse: full, cc: full}}
	cs, err = aggregate(context.Background(), "atax", "PWU", sc, fullReps)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Reps != sc.Reps || len(cs.Samples) != n {
		t.Fatalf("Reps=%d checkpoints=%d, want %d/%d", cs.Reps, len(cs.Samples), sc.Reps, n)
	}
}
