package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/space"
)

// hangingEvaluator blocks on the hangSet calls (1-based call numbers)
// until the evaluation context is cancelled; every other call returns
// the quadratic ground truth.
type hangingEvaluator struct {
	sp      *space.Space
	hangSet map[int]bool
	hangAll bool
	calls   int
}

func (h *hangingEvaluator) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	h.calls++
	if h.hangAll || h.hangSet[h.calls] {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	a := h.sp.ValueByName(c, "a")
	b := h.sp.ValueByName(c, "b")
	return (a-5)*(a-5) + (b-3)*(b-3) + 1, nil
}

// TestTimeoutCutsHangAsRetryable is the acceptance test for the
// per-evaluation deadline: an indefinite hang must be cut off within
// Timeout plus scheduling slack and then retried like any transient
// failure, completing the run.
func TestTimeoutCutsHangAsRetryable(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(90), 60)
	ev := &hangingEvaluator{sp: sp, hangSet: map[int]bool{3: true, 9: true}}
	start := time.Now()
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 2, NMax: 16, Forest: smallForest(),
			Failure: FailurePolicy{MaxRetries: 1, Timeout: 60 * time.Millisecond}},
		rng.New(91), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 16 {
		t.Fatalf("labeled %d under injected hangs, want 16", len(res.TrainY))
	}
	agg := res.Telemetry()
	if agg.EvalTimeouts != 2 {
		t.Fatalf("telemetry timeouts = %d, want 2", agg.EvalTimeouts)
	}
	if agg.EvalRetries != 2 {
		t.Fatalf("telemetry retries = %d, want 2 (each hang retried once)", agg.EvalRetries)
	}
	// Two 60 ms hangs plus the real work; anything near seconds means a
	// hang was not cut at its deadline.
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("run took %v; hangs were not cut off near the 60ms deadline", d)
	}
}

// TestTimeoutErrorIsNotCancellation pins the error identity: a timed-out
// attempt that exhausts its retry budget must surface ErrEvalTimeout and
// must NOT look like a context cancellation, or harness layers would
// misclassify a hung evaluator as an interrupted run.
func TestTimeoutErrorIsNotCancellation(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(92), 40)
	ev := &hangingEvaluator{sp: sp, hangAll: true}
	_, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NMax: 10, Forest: smallForest(),
			Failure: FailurePolicy{Timeout: 25 * time.Millisecond}},
		rng.New(93), nil)
	if err == nil {
		t.Fatal("always-hanging evaluator completed a run")
	}
	if !errors.Is(err, ErrEvalTimeout) {
		t.Fatalf("err = %v, want ErrEvalTimeout in the chain", err)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("timeout error %v masquerades as a context cancellation", err)
	}
}

// failNTimesEvaluator fails every configuration's first n attempts.
type failNTimesEvaluator struct {
	sp       *space.Space
	n        int
	attempts map[string]int
}

func (f *failNTimesEvaluator) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if f.attempts == nil {
		f.attempts = map[string]int{}
	}
	k := c.Key()
	if f.attempts[k] < f.n {
		f.attempts[k]++
		return 0, fmt.Errorf("transient failure %d", f.attempts[k])
	}
	a := f.sp.ValueByName(c, "a")
	b := f.sp.ValueByName(c, "b")
	return (a-5)*(a-5) + (b-3)*(b-3) + 1, nil
}

// TestBackoffInterruptedByCancel is the regression test that a retry
// backoff sleep ends promptly on context cancellation instead of
// blocking the drain for the full backoff.
func TestBackoffInterruptedByCancel(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(94), 40)
	ev := &failNTimesEvaluator{sp: sp, n: 1000}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NMax: 10, Forest: smallForest(),
			Failure: FailurePolicy{MaxRetries: 1000, Backoff: time.Hour}},
		rng.New(95), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation took %v to interrupt an hour-long backoff", d)
	}
}

// TestBackoffClampedByTimeout is the regression test that a backoff
// sleep never outlives the per-evaluation deadline: with an hour-long
// Backoff and a 30ms Timeout the retry must proceed promptly.
func TestBackoffClampedByTimeout(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(96), 60)
	ev := &failNTimesEvaluator{sp: sp, n: 1}
	start := time.Now()
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NMax: 12, Forest: smallForest(),
			Failure: FailurePolicy{MaxRetries: 2, Backoff: time.Hour, Timeout: 30 * time.Millisecond}},
		rng.New(97), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 12 {
		t.Fatalf("labeled %d, want 12", len(res.TrainY))
	}
	if res.Telemetry().EvalRetries == 0 {
		t.Fatal("no retries recorded; the clamp was never exercised")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("run took %v; backoff was not clamped to the 30ms timeout", d)
	}
}

// TestNoGoroutineLeakCancelDuringHang cancels runs while a hang is in
// flight and checks the engine (and the evaluator goroutine it is
// blocked in) fully unwinds.
func TestNoGoroutineLeakCancelDuringHang(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(98), 60)
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ev := &hangingEvaluator{sp: sp, hangSet: map[int]bool{7: true}}
		errc := make(chan error, 1)
		go func() {
			_, err := Run(ctx, sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
				Params{NInit: 5, NBatch: 1, NMax: 30, Forest: smallForest()}, rng.New(uint64(99+i)), nil)
			errc <- err
		}()
		time.Sleep(30 * time.Millisecond) // let the run reach the hang
		cancel()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("run %d completed through an unbounded hang", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d did not unwind after cancellation mid-hang", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d before, %d after cancelled mid-hang runs", before, n)
	}
}

// intervalModel gives the guard a controlled prediction interval.
type intervalModel struct{ mu, sigma float64 }

func (m intervalModel) Predict(x []float64) float64 { return m.mu }
func (m intervalModel) PredictBatch(X [][]float64) (mu, sigma []float64) {
	mu = make([]float64, len(X))
	sigma = make([]float64, len(X))
	for i := range X {
		mu[i], sigma[i] = m.mu, m.sigma
	}
	return mu, sigma
}

// corruptingEvaluator returns clean = 1.0 except on the corrupt calls
// (1-based), which return 1.0 * factor.
type corruptingEvaluator struct {
	corrupt map[int]bool
	factor  float64
	calls   int
}

func (e *corruptingEvaluator) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e.calls++
	if e.corrupt[e.calls] {
		return e.factor, nil
	}
	return 1.0, nil
}

func guardParams(guard LabelGuard) Params {
	return Params{
		NInit: 5, NBatch: 1, NMax: 12,
		Fitter: func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (Model, error) {
			return intervalModel{mu: 1, sigma: 0.05}, nil
		},
		Guard: guard,
	}
}

// TestGuardRemeasuresOutlier: a corrupted loop-phase label (8x the model
// interval) must be flagged, re-measured, and replaced by the clean
// median, with the wasted machine time billed as guard cost.
func TestGuardRemeasuresOutlier(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(100), 40)
	// Call 7 is the second loop iteration's measurement (5 cold-start
	// calls, then one per iteration).
	ev := &corruptingEvaluator{corrupt: map[int]bool{7: true}, factor: 8}
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, Random{},
		guardParams(LabelGuard{Z: 4, K: 3}), rng.New(101), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range res.TrainY {
		if y != 1.0 {
			t.Fatalf("TrainY[%d] = %v; corrupted label reached the training set", i, y)
		}
	}
	agg := res.Telemetry()
	if agg.GuardFlagged != 1 || agg.GuardRemeasured != 1 || agg.GuardQuarantined != 0 {
		t.Fatalf("guard counters flagged/remeasured/quarantined = %d/%d/%d, want 1/1/0",
			agg.GuardFlagged, agg.GuardRemeasured, agg.GuardQuarantined)
	}
	// Machine time: corrupted 8.0 + three re-measurements of 1.0, of
	// which the 1.0 median became the label -> 10.0 of guard overhead.
	if math.Abs(res.GuardCost-10) > 1e-9 || math.Abs(agg.GuardCost-10) > 1e-9 {
		t.Fatalf("guard cost %v (telemetry %v), want 10", res.GuardCost, agg.GuardCost)
	}
	var sum float64
	for _, y := range res.TrainY {
		sum += y
	}
	if math.Abs(res.LabelCost()-(sum+10)) > 1e-9 {
		t.Fatalf("LabelCost %v does not bill guard activity", res.LabelCost())
	}
}

// TestGuardQuarantinesOutlier: with GuardQuarantine the flagged
// configuration is dropped untrained and the run still reaches NMax.
func TestGuardQuarantinesOutlier(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(102), 40)
	ev := &corruptingEvaluator{corrupt: map[int]bool{7: true}, factor: 8}
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, Random{},
		guardParams(LabelGuard{Z: 4, Action: GuardQuarantine}), rng.New(103), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 12 {
		t.Fatalf("labeled %d, want 12 (quarantine must not shrink the target)", len(res.TrainY))
	}
	for i, y := range res.TrainY {
		if y != 1.0 {
			t.Fatalf("TrainY[%d] = %v; corrupted label reached the training set", i, y)
		}
	}
	agg := res.Telemetry()
	if agg.GuardQuarantined != 1 || agg.GuardRemeasured != 0 {
		t.Fatalf("guard counters remeasured/quarantined = %d/%d, want 0/1",
			agg.GuardRemeasured, agg.GuardQuarantined)
	}
	if math.Abs(res.GuardCost-8) > 1e-9 {
		t.Fatalf("guard cost %v, want 8 (the quarantined measurement)", res.GuardCost)
	}
	// 5 cold-start + 7 accepted loop labels + the 1 quarantined call.
	if ev.calls != 13 {
		t.Fatalf("evaluator calls %d, want 13 (no re-measurements under quarantine)", ev.calls)
	}
}

// TestGuardPassesHonestLabels: an evaluator inside the interval is never
// flagged, so guarded and unguarded runs are bit-identical.
func TestGuardPassesHonestLabels(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(104), 40)
	run := func(guard LabelGuard) *Result {
		ev := &corruptingEvaluator{} // always clean
		res, err := Run(context.Background(), sliceOf(sp, pool), ev, Random{}, guardParams(guard), rng.New(105), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	guarded := run(LabelGuard{Z: 4, K: 3})
	plain := run(LabelGuard{})
	if guarded.Telemetry().GuardFlagged != 0 {
		t.Fatalf("honest labels flagged %d times", guarded.Telemetry().GuardFlagged)
	}
	if len(guarded.TrainY) != len(plain.TrainY) {
		t.Fatalf("guarded run labeled %d, plain %d", len(guarded.TrainY), len(plain.TrainY))
	}
	for i := range plain.TrainY {
		if guarded.TrainY[i] != plain.TrainY[i] {
			t.Fatalf("label %d differs: guarded %v, plain %v", i, guarded.TrainY[i], plain.TrainY[i])
		}
	}
	if guarded.RNGState != plain.RNGState {
		t.Fatal("guard consumed loop-generator randomness on honest labels")
	}
}

// TestGuardCostSurvivesSnapshot pins the Snapshot round trip of the new
// GuardCost bookkeeping field.
func TestGuardCostSurvivesSnapshot(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(106), 40)
	ev := &corruptingEvaluator{corrupt: map[int]bool{7: true}, factor: 8}
	var snap *Snapshot
	params := guardParams(LabelGuard{Z: 4, K: 3})
	// The guard needs a resumable model; the const-model Fitter is not,
	// so capture the snapshot only for its bookkeeping fields.
	params.CheckpointEvery = 1
	params.Checkpoint = func(s *Snapshot) error { snap = s; return nil }
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, Random{}, params, rng.New(107), nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	if snap.GuardCost != res.GuardCost {
		t.Fatalf("snapshot guard cost %v, result %v", snap.GuardCost, res.GuardCost)
	}
	if res.GuardCost == 0 {
		t.Fatal("fixture produced no guard cost")
	}
}
