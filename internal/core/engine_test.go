package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/space"
)

// flakyEvaluator fails the first failuresPerConfig attempts of every
// configuration, billing failCost per failed attempt, then succeeds with
// the quadratic ground truth. A permanent set of config keys never
// succeeds.
type flakyEvaluator struct {
	sp                *space.Space
	failuresPerConfig int
	failCost          float64
	permanent         map[string]bool
	attempts          map[string]int
	calls             int
	cancelAfter       int // cancel() after this many calls (0 = never)
	cancel            context.CancelFunc
}

func (f *flakyEvaluator) truth(c space.Config) float64 {
	a := f.sp.ValueByName(c, "a")
	b := f.sp.ValueByName(c, "b")
	return (a-5)*(a-5) + (b-3)*(b-3) + 1
}

func (f *flakyEvaluator) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f.calls++
	if f.cancelAfter > 0 && f.calls >= f.cancelAfter && f.cancel != nil {
		f.cancel()
	}
	if f.attempts == nil {
		f.attempts = map[string]int{}
	}
	k := c.Key()
	if f.permanent[k] {
		return f.failCost, fmt.Errorf("flaky: config %s is cursed", k)
	}
	if f.attempts[k] < f.failuresPerConfig {
		f.attempts[k]++
		return f.failCost, fmt.Errorf("flaky: transient failure %d of %s", f.attempts[k], k)
	}
	return f.truth(c), nil
}

func fastRetry(n int, action FailureAction) FailurePolicy {
	return FailurePolicy{MaxRetries: n, Backoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond, OnExhausted: action}
}

func TestRetryPolicyCompletesRun(t *testing.T) {
	sp, _ := quadSpace(t)
	ev := &flakyEvaluator{sp: sp, failuresPerConfig: 2, failCost: 0.5}
	// Distinct configs: the transient-failure counter is per config key,
	// so a duplicated pool entry would sail through on its second visit.
	pool := sp.SampleDistinct(rng.New(50), 60)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 3, NMax: 20, Forest: smallForest(),
			Failure: fastRetry(2, FailAbort)},
		rng.New(51), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 20 {
		t.Fatalf("labeled %d under transient failures", len(res.TrainY))
	}
	agg := res.Telemetry()
	if agg.EvalRetries != 2*20 {
		t.Fatalf("telemetry retries = %d, want 40 (2 per config)", agg.EvalRetries)
	}
	if agg.EvalSkips != 0 {
		t.Fatalf("unexpected skips %d", agg.EvalSkips)
	}
	// Each failed attempt consumed 0.5 s of machine time; CC must count
	// it even though no label came back from those attempts.
	wantFailed := 0.5 * 40
	if math.Abs(res.FailedCost-wantFailed) > 1e-9 || math.Abs(agg.FailedCost-wantFailed) > 1e-9 {
		t.Fatalf("failed cost %v (telemetry %v), want %v", res.FailedCost, agg.FailedCost, wantFailed)
	}
	var labelSum float64
	for _, y := range res.TrainY {
		labelSum += y
	}
	if math.Abs(res.LabelCost()-(labelSum+wantFailed)) > 1e-9 {
		t.Fatalf("LabelCost %v does not include failed-attempt cost", res.LabelCost())
	}
}

func TestZeroPolicyAbortsOnFirstFailure(t *testing.T) {
	sp, _ := quadSpace(t)
	ev := &flakyEvaluator{sp: sp, failuresPerConfig: 1}
	pool := sp.SampleConfigs(rng.New(52), 60)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NMax: 20, Forest: smallForest()}, rng.New(53), nil)
	if err == nil {
		t.Fatal("zero failure policy tolerated a failure")
	}
	if res == nil {
		t.Fatal("no partial result on abort")
	}
	if ev.calls != 1 {
		t.Fatalf("evaluator called %d times, want 1 (no retries)", ev.calls)
	}
}

func TestFailSkipDropsCursedConfigs(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sp.SampleDistinct(rng.New(54), 60)
	cursed := map[string]bool{pool[3].Key(): true, pool[17].Key(): true, pool[40].Key(): true}
	ev := &flakyEvaluator{sp: sp, permanent: cursed}
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, MaxU{},
		Params{NInit: 8, NBatch: 4, NMax: 40, Forest: smallForest(),
			Failure: fastRetry(1, FailSkip)},
		rng.New(55), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 40 {
		t.Fatalf("labeled %d, want 40 (skips must not shrink the target)", len(res.TrainY))
	}
	for _, c := range res.TrainConfigs {
		if cursed[c.Key()] {
			t.Fatalf("cursed config %s entered the training set", c.Key())
		}
	}
	agg := res.Telemetry()
	// Each cursed config that the strategy touched costs 1 skip and
	// MaxRetries retries; it may or may not be selected, but the pool is
	// small enough with MaxU that at least one is.
	if agg.EvalSkips == 0 {
		t.Skip("strategy never selected a cursed config at this seed")
	}
	if agg.EvalRetries < agg.EvalSkips {
		t.Fatalf("retries %d < skips %d: retry budget not spent before skipping", agg.EvalRetries, agg.EvalSkips)
	}
}

func TestAllColdStartFailuresExhaustPool(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(56), 30)
	permanent := map[string]bool{}
	for _, c := range pool {
		permanent[c.Key()] = true
	}
	ev := &flakyEvaluator{sp: sp, permanent: permanent}
	_, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NMax: 20, Forest: smallForest(), Failure: fastRetry(0, FailSkip)},
		rng.New(57), nil)
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestCancelMidColdStart(t *testing.T) {
	sp, _ := quadSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &flakyEvaluator{sp: sp, cancelAfter: 3, cancel: cancel}
	pool := sp.SampleConfigs(rng.New(58), 60)
	res, err := Run(ctx, sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 10, NMax: 30, Forest: smallForest()}, rng.New(59), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if len(res.TrainY) != len(res.TrainConfigs) {
		t.Fatalf("inconsistent partial result: %d labels, %d configs", len(res.TrainY), len(res.TrainConfigs))
	}
	if len(res.TrainY) >= 10 {
		t.Fatalf("cold start finished (%d labels) despite cancellation", len(res.TrainY))
	}
}

func TestCancelMidLoopDrainsCheckpoint(t *testing.T) {
	sp, ev := quadSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Snapshot
	obs := func(s *State) error {
		if s.Iteration == 2 {
			cancel()
		}
		return nil
	}
	res, err := Run(ctx, sliceOf(sp, sp.SampleConfigs(rng.New(60), 80)), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 3, NMax: 50, Forest: smallForest(),
			CheckpointEvery: 100, // periodic snapshots never due; only the drain writes
			Checkpoint:      func(s *Snapshot) error { last = s; return nil }},
		rng.New(61), obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations != 2 {
		t.Fatalf("partial result has %d iterations, want 2", res.Iterations)
	}
	if last == nil {
		t.Fatal("cancellation did not drain a checkpoint")
	}
	if last.Iteration != 2 || len(last.TrainY) != len(res.TrainY) {
		t.Fatalf("drained snapshot at iteration %d with %d labels; run stopped at %d with %d",
			last.Iteration, len(last.TrainY), res.Iterations, len(res.TrainY))
	}
	if len(last.Remaining)+len(last.TrainY) > last.PoolSize {
		t.Fatal("snapshot membership accounting broken")
	}
}

// statefulEval measures the quadratic truth under multiplicative
// log-normal noise drawn from its own generator, and exports/restores
// that generator — the shape of the benchmark noise protocol, local to
// this package's tests.
type statefulEval struct {
	sp *space.Space
	r  *rng.RNG
}

func (s *statefulEval) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	a := s.sp.ValueByName(c, "a")
	b := s.sp.ValueByName(c, "b")
	truth := (a-5)*(a-5) + (b-3)*(b-3) + 1
	return truth * s.r.LogNormal(0, 0.05), nil
}

func (s *statefulEval) EvaluatorState() rng.State { return s.r.State() }

func (s *statefulEval) RestoreEvaluatorState(st rng.State) error {
	r, err := rng.FromState(st)
	if err != nil {
		return err
	}
	s.r = r
	return nil
}

// resumeFixture runs the golden resume-equivalence comparison for one
// engine mode: an uninterrupted run vs the same run interrupted at
// iteration stopAt and resumed from the JSON-round-tripped snapshot.
// Both must agree bit for bit on labels, selections, RNG stream position
// and final-model predictions.
func resumeFixture(t *testing.T, warm bool) {
	t.Helper()
	sp := space.MustNew(
		space.NumRange("a", 0, 9, 1),
		space.NumRange("b", 0, 9, 1),
	)
	const seed, evSeed, stopAt = 70, 71, 4
	pool := sp.SampleConfigs(rng.New(seed), 100)
	params := Params{NInit: 8, NBatch: 3, NMax: 44, Forest: smallForest(),
		WarmUpdate: warm, RecordSelections: true}

	// Reference: the run that is never interrupted.
	full, err := Run(context.Background(), sliceOf(sp, pool),
		&statefulEval{sp: sp, r: rng.New(evSeed)}, PWU{Alpha: 0.1}, params, rng.New(seed+1), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once iteration stopAt completes; the drain
	// checkpoint captures the boundary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *Snapshot
	ip := params
	ip.CheckpointEvery = 1000 // only the drain writes
	ip.Checkpoint = func(s *Snapshot) error { snap = s; return nil }
	_, err = Run(ctx, sliceOf(sp, pool),
		&statefulEval{sp: sp, r: rng.New(evSeed)}, PWU{Alpha: 0.1}, ip, rng.New(seed+1),
		func(s *State) error {
			if s.Iteration == stopAt {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v", err)
	}
	if snap == nil || snap.Iteration != stopAt {
		t.Fatalf("no usable snapshot (got %+v)", snap)
	}

	// A real resume crosses a process boundary: round-trip the snapshot
	// through its serialized form before continuing.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(context.Background(), &loaded, sliceOf(sp, pool),
		&statefulEval{sp: sp, r: rng.New(999)}, // wrong seed on purpose; state comes from the snapshot
		PWU{Alpha: 0.1}, params, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical labeled set, selection stream and RNG position.
	if len(resumed.TrainY) != len(full.TrainY) {
		t.Fatalf("labeled %d resumed vs %d full", len(resumed.TrainY), len(full.TrainY))
	}
	for i := range full.TrainY {
		if full.TrainY[i] != resumed.TrainY[i] {
			t.Fatalf("label %d: %v full vs %v resumed", i, full.TrainY[i], resumed.TrainY[i])
		}
		if full.TrainConfigs[i].Key() != resumed.TrainConfigs[i].Key() {
			t.Fatalf("config %d differs", i)
		}
	}
	if len(full.Selections) != len(resumed.Selections) {
		t.Fatalf("selections %d vs %d", len(full.Selections), len(resumed.Selections))
	}
	for i := range full.Selections {
		a, b := full.Selections[i], resumed.Selections[i]
		if a.Mu != b.Mu || a.Sigma != b.Sigma || a.Y != b.Y || a.Iteration != b.Iteration {
			t.Fatalf("selection %d: %+v vs %+v", i, a, b)
		}
	}
	if full.Iterations != resumed.Iterations {
		t.Fatalf("iterations %d vs %d", full.Iterations, resumed.Iterations)
	}
	if full.RNGState != resumed.RNGState {
		t.Fatalf("RNG stream positions diverged: %+v vs %+v", full.RNGState, resumed.RNGState)
	}
	// The final models are behaviorally identical.
	probe := sp.EncodeAll(sp.SampleConfigs(rng.New(72), 50))
	muA, sigA := full.Model.PredictBatch(probe)
	muB, sigB := resumed.Model.PredictBatch(probe)
	for i := range muA {
		if muA[i] != muB[i] || sigA[i] != sigB[i] {
			t.Fatalf("model prediction %d differs: (%v,%v) vs (%v,%v)", i, muA[i], sigA[i], muB[i], sigB[i])
		}
	}
	// The resumed telemetry stream covers the whole run.
	if len(resumed.Stats) != len(full.Stats) {
		t.Fatalf("telemetry events %d vs %d", len(resumed.Stats), len(full.Stats))
	}
}

func TestResumeEquivalenceColdRefit(t *testing.T) { resumeFixture(t, false) }

func TestResumeEquivalenceWarmUpdate(t *testing.T) { resumeFixture(t, true) }

func TestResumeValidation(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(80), 60)
	var snap *Snapshot
	_, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 5, NMax: 20, Forest: smallForest(),
			CheckpointEvery: 1, Checkpoint: func(s *Snapshot) error { snap = s; return nil }},
		rng.New(81), nil)
	if err != nil || snap == nil {
		t.Fatalf("setup run: err=%v snap=%v", err, snap)
	}

	if _, err := Resume(context.Background(), nil, sliceOf(sp, pool), ev, PWU{Alpha: 0.1}, Params{NMax: 20}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	bad := *snap
	bad.Version = 99
	if _, err := Resume(context.Background(), &bad, sliceOf(sp, pool), ev, PWU{Alpha: 0.1}, Params{NMax: 20}, nil); err == nil {
		t.Fatal("wrong snapshot version accepted")
	}
	otherPool := sp.SampleConfigs(rng.New(82), 60)
	if _, err := Resume(context.Background(), snap, sliceOf(sp, otherPool), ev, PWU{Alpha: 0.1}, Params{NMax: 20}, nil); err == nil {
		t.Fatal("mismatched pool accepted (hash check missing)")
	}
	if _, err := Resume(context.Background(), snap, sliceOf(sp, pool[:30]), ev, PWU{Alpha: 0.1}, Params{NMax: 20}, nil); err == nil {
		t.Fatal("short pool accepted")
	}
}

func TestCheckpointCadence(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(83), 80)
	var iters []int
	_, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 5, NMax: 40, Forest: smallForest(),
			CheckpointEvery: 3, Checkpoint: func(s *Snapshot) error { iters = append(iters, s.Iteration); return nil }},
		rng.New(84), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 7 iterations total (5 -> 40 in steps of 5); snapshots at the cold
	// start (iteration 0) and every 3rd iteration.
	want := []int{0, 3, 6}
	if len(iters) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", iters, want)
	}
	for i := range want {
		if iters[i] != want[i] {
			t.Fatalf("checkpoints at %v, want %v", iters, want)
		}
	}
}

func TestNoGoroutineLeakOnCancel(t *testing.T) {
	sp, _ := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(85), 80)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ev := &flakyEvaluator{sp: sp, cancelAfter: 12, cancel: cancel}
		_, err := Run(ctx, sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
			Params{NInit: 8, NBatch: 2, NMax: 60, Forest: smallForest()}, rng.New(uint64(86+i)), nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v", i, err)
		}
	}
	// Forest fitting uses bounded worker pools that must all have exited.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d before, %d after cancelled runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
