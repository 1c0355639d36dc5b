// Package altune is the public API of this repository: an active-learning
// toolkit for empirical performance modeling, reproducing "An Active
// Learning Method for Empirical Modeling in Performance Tuning"
// (Zhang, Zhou, Sun, Sun — IPDPS workshops 2020).
//
// The package re-exports the user-facing types of the internal
// implementation packages so that downstream code depends on one import:
//
//	sp := altune.MustNewSpace(
//	    altune.Num("tile", 16, 32, 64, 128),
//	    altune.Bool("vectorize"),
//	)
//	pool := sp.SampleConfigs(altune.NewRNG(1), 5000)
//	res, err := altune.Run(ctx, sp, pool, myEvaluator,
//	    altune.PWU{Alpha: 0.05}, altune.Params{NMax: 500}, altune.NewRNG(2), nil)
//
// The paper's 14 benchmarks (12 SPAPT kernels, kripke, hypre) are
// available through Benchmark/Benchmarks, and the full figure harness
// through RunStrategy/RunAll and the Scale presets.
package altune

import (
	"context"
	"io"

	"repro/internal/autotune"
	"repro/internal/bench"
	"repro/internal/calibration"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/runstate"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/transfer"
)

// ---- Parameter spaces (internal/space) ----

// Space is a finite tunable parameter space.
type Space = space.Space

// Parameter is one dimension of a Space.
type Parameter = space.Parameter

// Config is a point in a Space: one level index per parameter.
type Config = space.Config

// Feature describes one encoded model input column.
type Feature = space.Feature

// Num constructs a numeric parameter with explicit levels.
func Num(name string, levels ...float64) Parameter { return space.Num(name, levels...) }

// NumRange constructs a numeric parameter with integer levels lo..hi.
func NumRange(name string, lo, hi, step int) Parameter { return space.NumRange(name, lo, hi, step) }

// Cat constructs a categorical parameter from level names.
func Cat(name string, names ...string) Parameter { return space.Cat(name, names...) }

// Bool constructs a boolean parameter.
func Bool(name string) Parameter { return space.Bool(name) }

// NewSpace validates parameters and builds a Space.
func NewSpace(params ...Parameter) (*Space, error) { return space.New(params...) }

// MustNewSpace is NewSpace but panics on error.
func MustNewSpace(params ...Parameter) *Space { return space.MustNew(params...) }

// ---- Randomness (internal/rng) ----

// RNG is the deterministic splittable generator used everywhere.
type RNG = rng.RNG

// NewRNG returns a generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// ---- Surrogate model (internal/forest) ----

// Forest is a random-forest regressor with per-prediction uncertainty.
type Forest = forest.Forest

// ForestConfig configures forest construction.
type ForestConfig = forest.Config

// Uncertainty estimator choices for ForestConfig.Uncertainty.
const (
	BetweenTrees  = forest.BetweenTrees
	TotalVariance = forest.TotalVariance
)

// FitForest trains a random forest on (X, y).
func FitForest(X [][]float64, y []float64, features []Feature, cfg ForestConfig, r *RNG) (*Forest, error) {
	return forest.Fit(X, y, features, cfg, r)
}

// LoadForest reads a forest serialized with Forest.Save, enabling model
// reuse across processes and machines.
func LoadForest(r io.Reader) (*Forest, error) { return forest.Load(r) }

// GP is the Gaussian-process comparator surrogate (see the paper's
// §II-B for why the random forest is preferred on these spaces).
type GP = gp.GP

// GPConfig configures GP fitting.
type GPConfig = gp.Config

// FitGP trains a Gaussian process on (X, y).
func FitGP(X [][]float64, y []float64, features []Feature, cfg GPConfig, r *RNG) (*GP, error) {
	return gp.Fit(X, y, features, cfg, r)
}

// GPFitter returns a Fitter that plugs the GP surrogate into Run, for
// surrogate ablations.
func GPFitter(cfg GPConfig) Fitter {
	return func(X [][]float64, y []float64, features []Feature, r *RNG) (Model, error) {
		return gp.Fit(X, y, features, cfg, r)
	}
}

// ---- Active learning (internal/core) ----

// Evaluator labels configurations with measured performance. Evaluate
// receives a context and may fail; see FailurePolicy for how failures
// are handled.
type Evaluator = core.Evaluator

// EvaluatorFunc adapts a function to Evaluator.
type EvaluatorFunc = core.EvaluatorFunc

// StatefulEvaluator is an Evaluator whose internal generator state can
// be captured in snapshots and restored on resume.
type StatefulEvaluator = core.StatefulEvaluator

// FailurePolicy governs transient evaluation failures (capped
// exponential-backoff retries, then skip or abort).
type FailurePolicy = core.FailurePolicy

// FailureAction selects skip-and-drop or abort once retries are spent.
type FailureAction = core.FailureAction

// The failure actions.
const (
	FailAbort = core.FailAbort
	FailSkip  = core.FailSkip
)

// Strategy selects the next batch of pool candidates.
type Strategy = core.Strategy

// PoolStream is the strategy's view of the remaining pool: a scored
// stream of candidates (ordinal, features, μ, σ).
type PoolStream = core.PoolStream

// Params are Algorithm 1's knobs (NInit/NBatch/NMax/Forest).
type Params = core.Params

// Result is a completed active-learning run, including per-iteration
// telemetry (Result.Stats) and the final RNG stream position.
type Result = core.Result

// IterStats is one iteration's telemetry (timings, retries, guard activity).
type IterStats = core.IterStats

// RunStats aggregates IterStats over a run (see Result.Telemetry).
type RunStats = core.RunStats

// Selection is one recorded strategy decision (Params.RecordSelections).
type Selection = core.Selection

// Snapshot is the serializable state of a run at an iteration boundary;
// see Params.Checkpoint/CheckpointEvery, SaveSnapshot and Resume.
type Snapshot = core.Snapshot

// ErrPoolExhausted reports that failure skips emptied the pool before
// NMax labels were collected.
var ErrPoolExhausted = core.ErrPoolExhausted

// Model is the surrogate interface Algorithm 1 uses (implemented by
// Forest and the Gaussian-process comparator).
type Model = core.Model

// Fitter builds a surrogate from labeled data; set Params.Fitter to
// swap the random forest for another model.
type Fitter = core.Fitter

// State is the per-iteration snapshot passed to observers.
type State = core.State

// Observer is the per-iteration callback of Run.
type Observer = core.Observer

// The paper's sampling strategies.
type (
	// PWU is the paper's Performance Weighted Uncertainty strategy.
	PWU = core.PWU
	// PBUS is the two-stage baseline of Balaprakash et al. 2013.
	PBUS = core.PBUS
	// BRS samples randomly within the predicted-performance elite.
	BRS = core.BRS
	// BestPerf greedily picks the best predicted configurations.
	BestPerf = core.BestPerf
	// MaxU picks the most uncertain configurations.
	MaxU = core.MaxU
	// Random samples uniformly (the conventional baseline).
	Random = core.Random
	// EI is the Expected Improvement acquisition (SMAC-style
	// optimisation focus), included as an extension baseline.
	EI = core.EI
)

// Run executes the paper's Algorithm 1 over the unlabeled pool cfgs of
// space sp. Cancelling ctx drains the run at the next boundary and
// returns the partial Result with an error wrapping ctx.Err().
func Run(ctx context.Context, sp *Space, cfgs []Config, ev Evaluator, strat Strategy, params Params, r *RNG, obs Observer) (*Result, error) {
	return core.Run(ctx, pool.NewSlice(sp, cfgs), ev, strat, params, r, obs)
}

// Resume continues a checkpointed run bit-identically from a Snapshot;
// the caller regenerates the deterministic inputs (space, pool,
// evaluator, strategy, params) exactly as in the original run.
func Resume(ctx context.Context, snap *Snapshot, sp *Space, cfgs []Config, ev Evaluator, strat Strategy, params Params, obs Observer) (*Result, error) {
	return core.Resume(ctx, snap, pool.NewSlice(sp, cfgs), ev, strat, params, obs)
}

// SaveSnapshot writes a snapshot atomically to path (temp file +
// rename); LoadSnapshot reads it back. Params.Checkpoint set to
// SnapshotSink(path) persists every periodic checkpoint there.
func SaveSnapshot(path string, snap *Snapshot) error { return runstate.Save(path, snap) }

// LoadSnapshot reads a snapshot written by SaveSnapshot or SnapshotSink.
func LoadSnapshot(path string) (*Snapshot, error) { return runstate.Load(path) }

// SnapshotSink returns a Params.Checkpoint function persisting each
// snapshot atomically to path.
func SnapshotSink(path string) func(*Snapshot) error { return runstate.FileSink(path) }

// StrategyByName instantiates a registered strategy ("PWU", "PBUS",
// "BRS", "BestPerf", "MaxU", "Random", "CV").
func StrategyByName(name string, alpha float64) (Strategy, error) { return core.ByName(name, alpha) }

// StrategyNames lists the registered strategies in figure order.
func StrategyNames() []string { return core.StrategyNames() }

// ---- Metrics (internal/metrics) ----

// Curve is a learning curve over training-set sizes.
type Curve = metrics.Curve

// RMSEAtAlpha is the paper's Eq. 2: RMSE over the top-⌊nα⌋ samples.
func RMSEAtAlpha(y, yhat []float64, alpha float64) float64 {
	return metrics.RMSEAtAlpha(y, yhat, alpha)
}

// CumulativeCost is the paper's Eq. 3: total labeling time.
func CumulativeCost(y []float64) float64 { return metrics.CumulativeCost(y) }

// ---- Benchmarks (internal/bench, internal/dataset) ----

// Problem is one of the paper's benchmarks: space + performance model +
// noise profile.
type Problem = bench.Problem

// Benchmark returns the named benchmark ("adi" ... "mvt", "kripke",
// "hypre").
func Benchmark(name string) (Problem, error) { return bench.ByName(name) }

// Benchmarks returns all 14 problems (12 kernels, then the applications).
func Benchmarks() []Problem { return bench.All() }

// KernelBenchmarks returns the 12 SPAPT kernels.
func KernelBenchmarks() []Problem { return bench.Kernels() }

// ApplicationBenchmarks returns kripke and hypre.
func ApplicationBenchmarks() []Problem { return bench.Applications() }

// BenchmarkNames lists all benchmark names.
func BenchmarkNames() []string { return bench.Names() }

// Platform is a modeled execution platform (Table IV plus the
// transfer-experiment Platform C).
type Platform = machine.Platform

// PlatformA returns the Table IV kernel platform.
func PlatformA() *Platform { return machine.PlatformA() }

// PlatformB returns the Table IV application platform.
func PlatformB() *Platform { return machine.PlatformB() }

// PlatformC returns the extra platform used by transfer experiments.
func PlatformC() *Platform { return machine.PlatformC() }

// KernelOnPlatform returns a SPAPT kernel re-hosted on another platform,
// sharing its parameter space with the original — the target side of
// RunTransfer.
func KernelOnPlatform(name string, p *Platform) (Problem, error) {
	return bench.KernelOn(name, p)
}

// NoisyEvaluator measures a problem under its noise profile; it
// implements StatefulEvaluator, so noisy runs checkpoint and resume
// bit-identically.
type NoisyEvaluator = bench.NoisyEvaluator

// BenchmarkEvaluator wraps a problem as a noisy Evaluator following the
// paper's measurement protocol.
func BenchmarkEvaluator(p Problem, r *RNG) *NoisyEvaluator { return bench.Evaluator(p, r) }

// Dataset is a pool/test split with pre-measured test labels.
type Dataset = dataset.Dataset

// BuildDataset samples and labels a dataset for p; ctx cancels the test
// measurements.
func BuildDataset(ctx context.Context, p Problem, poolSize, testSize int, r *RNG) (*Dataset, error) {
	return dataset.Build(ctx, p, poolSize, testSize, r)
}

// ---- Experiment harness (internal/experiment) ----

// Scale bundles experiment sizes (pool, labels, repetitions, α, model).
type Scale = experiment.Scale

// CurveSet is a strategy's averaged RMSE@α and CC learning curves.
type CurveSet = experiment.CurveSet

// PaperScale returns the §III-D settings (7000/3000 split, 500 labels,
// 10 repetitions, α = 0.05).
func PaperScale() Scale { return experiment.Paper() }

// QuickScale returns a reduced scale preserving the experiment's shape.
func QuickScale() Scale { return experiment.Quick() }

// RunStrategy runs averaged repetitions of one strategy on one problem.
// Cancelling ctx drains the repetition workers and returns the partial
// curves alongside the error.
func RunStrategy(ctx context.Context, p Problem, strategyName string, sc Scale, seed uint64) (*CurveSet, error) {
	return experiment.RunStrategy(ctx, p, strategyName, sc, seed)
}

// RunAllStrategies runs several strategies on one problem.
func RunAllStrategies(ctx context.Context, p Problem, names []string, sc Scale, seed uint64) ([]*CurveSet, error) {
	return experiment.RunAll(ctx, p, names, sc, seed)
}

// ---- Auto-tuning pipeline (internal/autotune, internal/search) ----

// AutotuneConfig sizes the end-to-end tuning pipeline.
type AutotuneConfig = autotune.Config

// AutotuneOutcome is a completed tuning run.
type AutotuneOutcome = autotune.Outcome

// DefaultAutotuneConfig returns a balanced pipeline configuration.
func DefaultAutotuneConfig() AutotuneConfig { return autotune.Default() }

// Autotune runs the full pipeline: PWU surrogate building, heuristic
// search over the surrogate, measured verification of the winners. With
// AutotuneConfig.CheckpointPath set, an interrupted model phase resumes
// from its snapshot on the next call.
func Autotune(ctx context.Context, p Problem, cfg AutotuneConfig, seed uint64) (*AutotuneOutcome, error) {
	return autotune.Tune(ctx, p, cfg, seed)
}

// SearchResult is a completed heuristic search over a space.
type SearchResult = search.Result

// SearchObjective is the minimised black-box function.
type SearchObjective = search.Objective

// RandomSearch, HillClimb and Anneal optimise an objective over a space
// within an evaluation budget; see internal/search for semantics.
func RandomSearch(sp *Space, obj SearchObjective, budget int, r *RNG) (*SearchResult, error) {
	return search.RandomSearch(sp, obj, budget, r)
}

// HillClimb runs restarted steepest-descent over level neighbourhoods.
func HillClimb(sp *Space, obj SearchObjective, budget int, r *RNG) (*SearchResult, error) {
	return search.HillClimb(sp, obj, budget, r)
}

// Anneal runs simulated annealing with a default schedule.
func Anneal(sp *Space, obj SearchObjective, budget int, r *RNG) (*SearchResult, error) {
	return search.Anneal(sp, obj, budget, search.AnnealConfig{}, r)
}

// ---- Uncertainty calibration (internal/calibration) ----

// CalibrationReport summarises how honest a model's σ estimates are.
type CalibrationReport = calibration.Report

// Calibrate evaluates (y, μ, σ) coverage and sharpness; see
// internal/calibration.
func Calibrate(y, mu, sigma []float64) (*CalibrationReport, error) {
	return calibration.Evaluate(y, mu, sigma)
}

// ---- Cross-platform transfer (internal/transfer) ----

// TransferConfig sizes a model-portability experiment.
type TransferConfig = transfer.Config

// TransferResult compares from-scratch and transferred target models.
type TransferResult = transfer.Result

// DefaultTransferConfig returns a moderate transfer experiment.
func DefaultTransferConfig() TransferConfig { return transfer.Default() }

// RunTransfer runs the paper's future-work portability experiment:
// reuse a source-platform model to cut target-platform labeling cost.
// Source and target must share a parameter space.
func RunTransfer(ctx context.Context, source, target Problem, cfg TransferConfig, seed uint64) (*TransferResult, error) {
	return transfer.Run(ctx, source, target, cfg, seed)
}
