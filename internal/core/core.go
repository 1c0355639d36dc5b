// Package core implements the paper's primary contribution: the active
// learning loop of Algorithm 1 and the sampling strategies it compares —
// most importantly Performance Weighted Uncertainty (PWU).
//
// The loop (Fig. 1 of the paper):
//
//  1. Sample n_init configurations uniformly from the unlabeled pool and
//     evaluate them (cold-start phase). The pool is a pool.Source: a
//     materialized slice (pool.NewSlice) or a lazily generated stream
//     (pool.NewUniform, pool.NewEnumeration, ...), scored shard by shard
//     so memory stays bounded whatever its size.
//  2. Fit a random forest to the labeled set.
//  3. Ask the sampling strategy for the next batch, using the forest's
//     per-configuration prediction mean μ and uncertainty σ over the
//     remaining pool.
//  4. Evaluate the batch, append it to the training set, refit, repeat
//     until n_max samples are labeled.
//
// Everything is deterministic given the caller-provided generator.
//
// Beyond the bare algorithm, Run is a production run engine: evaluations
// receive a context and may fail (labels are real program runs that
// hang, crash, or get cut short by a budget), a configurable failure
// policy retries with capped exponential backoff before skipping or
// aborting, cancellation drains cleanly and returns the partial result,
// per-iteration telemetry is recorded, and the full loop state can be
// snapshotted and resumed bit-identically (see Snapshot and Resume).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// Evaluator labels a configuration with its measured performance
// (execution time in seconds; smaller is better). Implementations live
// in the benchmark substrates (internal/spapt, internal/kripke,
// internal/hypre, via internal/bench).
//
// Evaluate must honor ctx: a real measurement is a program run that the
// engine may need to abort. A non-nil error marks the measurement as
// failed; when the failed run still consumed machine time (e.g. it was
// cut short by a timeout budget), return that time alongside the error
// and the engine bills it to the cumulative labeling cost.
type Evaluator interface {
	Evaluate(ctx context.Context, c space.Config) (float64, error)
}

// BatchEvaluator is an optional Evaluator capability: measure several
// configurations in one call, in order, as if Evaluate had been called
// on each — same stream, same values. The session driver uses it to
// label a whole ask batch at once, which matters when each call is a
// network round trip (see fleet.RemoteEvaluator); it never changes the
// measurements, only how many trips deliver them.
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]Label, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(ctx context.Context, c space.Config) (float64, error)

// Evaluate calls f(ctx, c).
func (f EvaluatorFunc) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	return f(ctx, c)
}

// StatefulEvaluator is an optional Evaluator capability: evaluators
// whose measurements consume internal randomness (the benchmark noise
// protocol) export and restore that generator state, so snapshots
// capture the noise stream and a resumed run replays it bit-identically.
type StatefulEvaluator interface {
	Evaluator

	// EvaluatorState exports the internal generator state.
	EvaluatorState() rng.State

	// RestoreEvaluatorState rewinds the evaluator to an exported state.
	RestoreEvaluatorState(st rng.State) error
}

// Model is the surrogate interface Algorithm 1 requires: point
// predictions plus per-prediction uncertainty. forest.Forest is the
// default implementation; internal/gp provides the Gaussian-process
// comparator discussed in the paper's §II-B.
type Model interface {
	// Predict returns the point prediction for one feature vector.
	Predict(x []float64) float64

	// PredictBatch returns prediction means and uncertainties for a
	// batch of feature vectors.
	PredictBatch(X [][]float64) (mu, sigma []float64)
}

// Fitter builds a surrogate from the current labeled set. Params.Fitter
// defaults to random-forest fitting with Params.Forest.
type Fitter func(X [][]float64, y []float64, features []space.Feature, r *rng.RNG) (Model, error)

// Updatable is an optional Model capability: a warm partial refit on the
// grown training set, instead of training from scratch (the "updated
// partially" path of the paper's Fig. 1 caption).
type Updatable interface {
	// Update refits the model in place given the full current training
	// set (old samples first, new samples appended at the end).
	Update(X [][]float64, y []float64, r *rng.RNG) error
}

// FailureAction selects what the engine does with a configuration whose
// evaluation keeps failing after the retry budget is spent.
type FailureAction int

const (
	// FailAbort stops the run with an error (the default: a persistent
	// failure usually means the harness itself is broken).
	FailAbort FailureAction = iota

	// FailSkip drops the configuration from the pool and continues —
	// graceful degradation when individual configurations crash the
	// program under test.
	FailSkip
)

// FailurePolicy governs transient evaluation failures. The zero value
// never retries and aborts on the first failure, matching the engine's
// historical all-or-nothing behavior.
type FailurePolicy struct {
	// MaxRetries is the number of re-attempts after a failed
	// evaluation of the same configuration.
	MaxRetries int

	// Backoff is the delay before the first retry; it doubles after
	// every further failure (capped exponential backoff). Zero retries
	// immediately.
	Backoff time.Duration

	// MaxBackoff caps the exponential growth; <= 0 leaves it uncapped.
	MaxBackoff time.Duration

	// OnExhausted selects FailAbort (default) or FailSkip once
	// MaxRetries re-attempts have failed.
	OnExhausted FailureAction

	// Timeout is the per-attempt evaluation deadline, enforced through
	// the context handed to the evaluator. An attempt that outlives it
	// is a retryable failure (ErrEvalTimeout) — a hung program run
	// surfaces like a crashed one instead of blocking the engine
	// forever. Backoff sleeps are clamped to it too, so a retry is
	// never delayed longer than an attempt may run. <= 0 disables the
	// deadline.
	Timeout time.Duration
}

// ErrEvalTimeout marks an evaluation attempt cut off by
// FailurePolicy.Timeout. It deliberately does not wrap
// context.DeadlineExceeded: the run's own context is still live, and
// upstream layers must not mistake a timed-out measurement for a
// cancelled run.
var ErrEvalTimeout = errors.New("core: evaluation timed out")

// GuardAction selects what LabelGuard does with a flagged label.
type GuardAction int

const (
	// GuardRemeasure re-measures the configuration K times and labels
	// it with the median — the default, since most outliers are one-off
	// measurement garbage.
	GuardRemeasure GuardAction = iota

	// GuardQuarantine drops the configuration from the pool without
	// training on it, like a failure skip.
	GuardQuarantine
)

// LabelGuard screens freshly measured labels against the surrogate's
// current prediction interval. A label y for a candidate the model
// believes to be (μ, σ) is suspect when |y − μ| > Z·σ + Rel·|μ|; suspect
// labels are re-measured (median of K) or quarantined instead of being
// trained on, because one corrupted label steers every subsequent μ/σ
// ranking the strategy sees. The zero value disables the guard. The
// guard is inactive during the cold start (there is no model yet) and
// all guard activity — flags, re-measurements, quarantines, and the
// machine time they consume — is billed into CC and the run telemetry.
type LabelGuard struct {
	// Z is the flag threshold in prediction-uncertainty sigmas; <= 0
	// disables the guard entirely.
	Z float64

	// Rel adds slack proportional to |μ|, so a tight σ on a
	// well-explored region does not flag honest measurement noise.
	Rel float64

	// K is the number of re-measurements under GuardRemeasure; <= 0
	// defaults to 3.
	K int

	// Action selects GuardRemeasure (default) or GuardQuarantine.
	Action GuardAction
}

// enabled reports whether the guard screens labels at all.
func (g LabelGuard) enabled() bool { return g.Z > 0 }

// suspect applies the prediction-interval test. A NaN μ or σ (a
// degenerate model) never flags: the comparison is false, and the label
// passes through unguarded.
func (g LabelGuard) suspect(y, mu, sigma float64) bool {
	return math.Abs(y-mu) > g.Z*sigma+g.Rel*math.Abs(mu)
}

// Params are Algorithm 1's knobs. The paper's defaults (§III-D) are
// NInit = 10, NBatch = 1, NMax = 500.
type Params struct {
	// NInit is the cold-start training-set size.
	NInit int

	// NBatch is the number of configurations evaluated per iteration.
	NBatch int

	// NMax is the final training-set size; the loop stops once reached.
	NMax int

	// Forest configures the surrogate model refitted every iteration.
	// Ignored when Fitter is set.
	Forest forest.Config

	// Fitter overrides the surrogate; nil means random forest with the
	// Forest configuration.
	Fitter Fitter

	// WarmUpdate refits via Model.Update when the model supports it
	// (partial update) instead of training from scratch each iteration.
	WarmUpdate bool

	// RecordSelections retains the (μ, σ) of every strategy-selected
	// sample at selection time, for Fig. 9-style scatter analyses.
	RecordSelections bool

	// Failure governs transient evaluation failures; the zero value
	// aborts on the first failure.
	Failure FailurePolicy

	// Guard screens loop-phase labels against the model's prediction
	// interval (re-measure or quarantine outliers); the zero value
	// trains on every measurement unchecked.
	Guard LabelGuard

	// CheckpointEvery > 0 hands a Snapshot to Checkpoint after the cold
	// start and then after every CheckpointEvery-th completed
	// iteration. A cancellation that lands between iterations also
	// drains a final snapshot, so an interrupted process can resume
	// from the exact boundary it stopped at.
	CheckpointEvery int

	// Checkpoint receives snapshots (see internal/runstate for an
	// atomic file sink). It must serialize or copy what it keeps; the
	// engine reuses nothing, but sinks should not block for long. A
	// checkpoint error aborts the run.
	Checkpoint func(*Snapshot) error

	// ModelLoader reconstructs a snapshot's serialized model during
	// Resume; nil defaults to forest deserialization, which matches the
	// default Fitter. Custom Fitters whose models implement
	// json.Marshaler set this to make their runs resumable.
	ModelLoader func(data []byte) (Model, error)

	// StreamShard and StreamWorkers tune the sharded pool scan:
	// candidates per scoring shard and concurrent scoring workers
	// (<= 0 uses the pool package defaults of 1024 and GOMAXPROCS; both
	// are capped by the pool size). They are performance knobs only —
	// selection is bit-identical across every setting, which the
	// pool-equivalence gate enforces.
	StreamShard   int
	StreamWorkers int

	// StreamCacheMB bounds the cross-scan score cache (pool.ScanCache)
	// active during warm-update runs: per-candidate per-tree
	// score panels are kept across iterations so each scan re-walks only
	// the ensemble slots the preceding partial Update actually refreshed.
	// 0 means a 256 MiB default, < 0 disables the cache; candidates
	// beyond the budgeted prefix are re-scored from scratch each scan.
	// Results are bit-identical with the cache on, off, or at any
	// budget. Without WarmUpdate every iteration refits a fresh model,
	// no slot survives, and the cache stays off.
	StreamCacheMB int
}

// Normalized returns p with the engine's defaults applied. Callers that
// must mirror the engine's labeling schedule — e.g. the experiment
// harness computing checkpoint sizes — use it to stay in lockstep with
// Run instead of re-implementing the defaulting.
func (p Params) Normalized() Params {
	if p.NInit <= 0 {
		p.NInit = 10
	}
	if p.NBatch <= 0 {
		p.NBatch = 1
	}
	if p.NMax <= 0 {
		p.NMax = 500
	}
	return p
}

// Selection records one strategy decision for later analysis.
type Selection struct {
	Config    space.Config `json:"config"`
	Mu        float64      `json:"mu"`        // model belief at selection time
	Sigma     float64      `json:"sigma"`     // model belief at selection time
	Y         float64      `json:"y"`         // measured value
	Iteration int          `json:"iteration"` // 1-based iteration of the loop phase
}

// IterStats is the telemetry of one engine event: the cold start
// (Iteration 0) or one loop iteration. Durations are wall-clock and
// excluded from the bit-identity guarantees of Resume; the counters are
// deterministic.
type IterStats struct {
	// Iteration is 0 for the cold start, then counts loop iterations.
	Iteration int `json:"iteration"`

	// Samples is the labeled-set size after the event.
	Samples int `json:"samples"`

	// FitTime is the surrogate (re)fit wall time.
	FitTime time.Duration `json:"fit_ns"`

	// SelectTime covers candidate scoring plus strategy selection.
	SelectTime time.Duration `json:"select_ns"`

	// EvalTime is the labeling wall time, including retries and
	// backoff sleeps.
	EvalTime time.Duration `json:"eval_ns"`

	// EvalRetries counts failed evaluation attempts that were retried.
	EvalRetries int `json:"eval_retries,omitempty"`

	// EvalTimeouts counts attempts cut off by FailurePolicy.Timeout
	// (a subset of the retried/failed attempts).
	EvalTimeouts int `json:"eval_timeouts,omitempty"`

	// EvalSkips counts configurations dropped from the pool under
	// FailSkip.
	EvalSkips int `json:"eval_skips,omitempty"`

	// FailedCost is the labeling cost billed by failed attempts.
	FailedCost float64 `json:"failed_cost,omitempty"`

	// GuardFlagged counts labels the label guard found suspect;
	// GuardRemeasured of those were replaced by a median re-measurement
	// and GuardQuarantined were dropped from the pool untrained.
	GuardFlagged     int `json:"guard_flagged,omitempty"`
	GuardRemeasured  int `json:"guard_remeasured,omitempty"`
	GuardQuarantined int `json:"guard_quarantined,omitempty"`

	// GuardCost is the labeling cost billed by guard activity: the
	// machine time of quarantined measurements and of re-measurements
	// beyond the median that became the label.
	GuardCost float64 `json:"guard_cost,omitempty"`
}

// RunStats aggregates IterStats over a run.
type RunStats struct {
	FitTime    time.Duration
	SelectTime time.Duration
	EvalTime   time.Duration

	EvalRetries  int
	EvalTimeouts int
	EvalSkips    int
	FailedCost   float64

	GuardFlagged     int
	GuardRemeasured  int
	GuardQuarantined int
	GuardCost        float64

	// Events counts telemetry events (cold start + iterations).
	Events int
}

// State is the live state of a run, passed to the per-iteration
// observer. Each observer call is one event of the engine's telemetry
// stream.
type State struct {
	// Model is the surrogate fitted to the current training set. Valid
	// only during the observer call; do not retain it across iterations.
	Model Model

	// TrainConfigs / TrainY are the labeled samples so far, in labeling
	// order (cold-start samples first).
	TrainConfigs []space.Config
	TrainY       []float64

	// Iteration counts completed loop iterations; it is 0 for the
	// observer call right after the cold start.
	Iteration int

	// Stats is the telemetry of the event that just completed.
	Stats IterStats

	// LabelCost is the cumulative labeling cost so far (the paper's
	// CC, Eq. 3) including the cost billed by failed attempts and by
	// label-guard activity.
	LabelCost float64
}

// Observer is invoked after every model (re)fit, i.e. once after the cold
// start and once per loop iteration. Returning an error aborts the run.
type Observer func(s *State) error

// ErrPoolExhausted reports that failure skips emptied the pool before
// NMax labels were collected; the run result is still returned.
var ErrPoolExhausted = errors.New("core: pool exhausted before NMax labels")

// Result is the outcome of a run. On errors that interrupt a run midway
// (cancellation, evaluation failure, observer abort) the partial Result
// is returned alongside the error.
type Result struct {
	TrainConfigs []space.Config
	TrainY       []float64
	Model        Model
	Selections   []Selection // nil unless Params.RecordSelections
	Iterations   int

	// Stats is the per-event telemetry stream (cold start first).
	Stats []IterStats

	// FailedCost is the total labeling cost billed by failed
	// evaluation attempts.
	FailedCost float64

	// GuardCost is the total labeling cost billed by label-guard
	// activity (quarantined measurements and non-median
	// re-measurements).
	GuardCost float64

	// RNGState is the loop generator's state when the run returned;
	// with it, two runs can be compared for identical stream position.
	RNGState rng.State
}

// LabelCost returns the run's cumulative labeling cost (the paper's CC,
// Eq. 3) including the cost billed by failed evaluation attempts and by
// label-guard activity.
func (r *Result) LabelCost() float64 {
	var sum float64
	for _, y := range r.TrainY {
		sum += y
	}
	return sum + r.FailedCost + r.GuardCost
}

// Telemetry aggregates the per-event stats of the run.
func (r *Result) Telemetry() RunStats {
	var a RunStats
	for _, s := range r.Stats {
		a.FitTime += s.FitTime
		a.SelectTime += s.SelectTime
		a.EvalTime += s.EvalTime
		a.EvalRetries += s.EvalRetries
		a.EvalTimeouts += s.EvalTimeouts
		a.EvalSkips += s.EvalSkips
		a.FailedCost += s.FailedCost
		a.GuardFlagged += s.GuardFlagged
		a.GuardRemeasured += s.GuardRemeasured
		a.GuardQuarantined += s.GuardQuarantined
		a.GuardCost += s.GuardCost
		a.Events++
	}
	return a
}

// Run executes Algorithm 1 over the candidate pool src.
//
// ctx cancels the run: the engine drains cleanly at the next boundary
// (between measurements or iterations), writes a final snapshot when a
// Checkpoint sink is configured, and returns the partial Result with an
// error wrapping ctx.Err().
//
// src is the unlabeled data pool X_pool (the surrogate of the whole
// space) and supplies the parameter space; wrap a materialized
// []space.Config in pool.NewSlice. Each iteration's scoring streams
// shard by shard through the model on a bounded set of worker buffers
// (peak memory O(workers × shard), never O(pool)), and the strategy
// reduces the scored stream into its batch. ev labels configurations;
// strat picks batches; r provides all randomness; obs may be nil. The
// result is a pure function of the candidate sequence, ev, strat,
// params and r — invariant across shard sizes, worker counts and
// source kinds (the pool-equivalence gate).
//
// Run is a thin driver over the ask-tell Session (session.go): it asks
// for batches, labels them in-process under the failure policy, and
// tells the labels back. Snapshots record the source fingerprint and
// the taken set; Resume continues from one.
func Run(ctx context.Context, src pool.Source, ev Evaluator, strat Strategy, params Params, r *rng.RNG, obs Observer) (*Result, error) {
	if ev == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	s, err := NewSession(SessionConfig{
		Source: src, Strategy: strat, Params: params,
		RNG: r, Observer: obs, Evaluator: ev,
	})
	if err != nil {
		return nil, err
	}
	return driveSession(ctx, s, ev)
}

// median returns the median of xs (mean of the central pair for even
// lengths). xs is not modified.
func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
