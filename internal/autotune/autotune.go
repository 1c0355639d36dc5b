// Package autotune assembles the complete auto-tuning pipeline the paper
// builds toward: spend a modest budget of real runs on PWU active
// learning to obtain a surrogate, search the surrogate heuristically at
// zero marginal cost, then verify the most promising candidates with a
// handful of real measurements and return the best.
//
// The division of labour mirrors the paper's Fig. 8 case study: the
// surrogate "enables negligible cost of thousands of annotations", so
// the search phase can afford to be exhaustive where direct tuning could
// not.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/runstate"
	"repro/internal/search"
	"repro/internal/space"
)

// Config sizes the pipeline phases.
type Config struct {
	// PoolSize is the unlabeled pool for the active-learning phase.
	PoolSize int

	// ModelBudget is the number of real program runs spent building the
	// surrogate (Algorithm 1 with PWU).
	ModelBudget int

	// Alpha is the PWU high-performance proportion.
	Alpha float64

	// Forest configures the surrogate.
	Forest forest.Config

	// Searcher names the surrogate optimiser: "random", "hill",
	// "anneal".
	Searcher string

	// SearchBudget is the number of surrogate evaluations the searcher
	// may spend (these are free in real time).
	SearchBudget int

	// Verify is the number of distinct top candidates re-measured with
	// real runs before the final pick.
	Verify int

	// Failure is the run engine's policy for transiently failing
	// measurements during the model phase (retry/skip/abort).
	Failure core.FailurePolicy

	// CheckpointPath, when non-empty, makes the model phase resumable:
	// a snapshot is written atomically to this path every
	// CheckpointEvery iterations (default 10) and on a drained
	// cancellation. When Tune starts and a snapshot already exists at
	// the path, the model phase resumes from it bit-identically instead
	// of starting over; the file is removed once the phase completes.
	CheckpointPath string

	// CheckpointEvery is the snapshot cadence in iterations; <= 0 means
	// every 10.
	CheckpointEvery int

	// Chaos injects deterministic faults into the model phase's
	// evaluator (see chaos.Scenario) — a drill harness for the failure
	// policy. The verify and baseline measurements stay fault-free. The
	// zero scenario injects nothing.
	Chaos chaos.Scenario

	// StreamShard and StreamWorkers tune the sharded pool scan
	// (candidates per scoring shard, concurrent scoring workers); <= 0
	// uses the pool package defaults. The model phase's pool is generated
	// lazily shard by shard, never materialized, so PoolSize can scale to
	// production spaces (10^6–10^8) with memory bounded by
	// O(StreamWorkers × StreamShard); the knobs never change the outcome.
	StreamShard   int
	StreamWorkers int

	// WarmUpdate refits the surrogate by partially updating the
	// ensemble each iteration instead of retraining from scratch. It
	// also enables the cross-scan score cache: unchanged trees' scores
	// are reused between iterations and only the refreshed trees are
	// re-walked.
	WarmUpdate bool

	// Logf, when set, receives warnings the pipeline can recover from —
	// e.g. a corrupt checkpoint being discarded for a cold start. Nil
	// discards them.
	Logf func(format string, args ...interface{})

	// Remote, when set, offloads every real measurement — model-phase
	// labels, verification runs, the baseline — to fleet workers
	// through this submitter: the embedded coordinator of -remote, or
	// a fleet.Client against a resident fleetd. The local evaluator
	// stays as the noise-stream mirror (see fleet.RemoteEvaluator), so
	// the outcome is bit-identical to a local run; model-phase ask
	// batches travel as one task each. Chaos composes: the injector
	// wraps the remote evaluator exactly as it wraps a local one.
	Remote fleet.Submitter
}

// logf emits a recoverable-warning line when a sink is configured.
func (c Config) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Default returns a balanced configuration.
func Default() Config {
	return Config{
		PoolSize:     2000,
		ModelBudget:  200,
		Alpha:        0.05,
		Forest:       forest.Config{NumTrees: 64},
		Searcher:     "anneal",
		SearchBudget: 20000,
		Verify:       5,
	}
}

// Outcome is a completed tuning run.
type Outcome struct {
	// Best is the selected configuration; BestMeasured its real
	// (measured) execution time.
	Best         space.Config
	BestMeasured float64

	// BaselineMeasured is the measured time of the all-default
	// configuration (every parameter at its first level), and Speedup
	// the ratio baseline/best.
	BaselineMeasured float64
	Speedup          float64

	// ModelCost is the cumulative real time spent labeling during the
	// active-learning phase (the paper's CC), and RealRuns the total
	// count of real executions including verification.
	ModelCost float64
	RealRuns  int

	// SearchEvaluations counts the free surrogate evaluations.
	SearchEvaluations int

	// PredictedBest is the surrogate's belief about Best, for
	// model-trust diagnostics.
	PredictedBest float64
}

// Tune runs the full pipeline on problem p. Cancelling ctx drains the
// current measurement and returns the ctx error; with a CheckpointPath
// configured, the interrupted model phase leaves a snapshot behind and a
// rerun of Tune with the same inputs resumes from it bit-identically.
func Tune(ctx context.Context, p bench.Problem, cfg Config, seed uint64) (*Outcome, error) {
	if cfg.ModelBudget < 20 {
		return nil, fmt.Errorf("autotune: model budget %d too small", cfg.ModelBudget)
	}
	if cfg.Verify < 1 {
		return nil, fmt.Errorf("autotune: verify count %d", cfg.Verify)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	searcher, err := search.ByName(cfg.Searcher)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	sp := p.Space()
	var ev core.Evaluator = bench.Evaluator(p, r.Split())
	if cfg.Remote != nil {
		ev, err = fleet.NewRemoteEvaluator(cfg.Remote, p.Name(), ev)
		if err != nil {
			return nil, fmt.Errorf("autotune: %w", err)
		}
	}

	// Phase 1: surrogate via PWU active learning. Every input below is
	// regenerated deterministically from the seed, which is what lets a
	// resumed phase validate the pool fingerprint and continue the
	// exact run. poolR seeds the unlabeled pool, replayed lazily by a
	// pool.Uniform source — the candidate sequence SampleConfigs(poolR)
	// would materialize, which is also what lets checkpoints from the
	// retired materialized mode resume.
	poolR := r.Split()
	params := core.Params{
		NInit: 10, NBatch: 5, NMax: cfg.ModelBudget,
		Forest: cfg.Forest, Failure: cfg.Failure,
		StreamShard: cfg.StreamShard, StreamWorkers: cfg.StreamWorkers,
		WarmUpdate: cfg.WarmUpdate,
	}
	if cfg.CheckpointPath != "" {
		params.CheckpointEvery = cfg.CheckpointEvery
		if params.CheckpointEvery <= 0 {
			params.CheckpointEvery = 10
		}
		params.Checkpoint = runstate.FileSink(cfg.CheckpointPath)
	}
	strat := core.PWU{Alpha: cfg.Alpha}

	// The model phase optionally runs under fault injection; verify and
	// baseline measurements below use the clean evaluator.
	var modelEv core.Evaluator = ev
	if cfg.Chaos.Active() {
		modelEv = chaos.Evaluator(cfg.Chaos, rng.Mix(cfg.Chaos.Seed, seed), ev)
	}

	var res *core.Result
	loopR := r.Split() // consumed even on resume, to keep later phases' streams aligned
	var snap *core.Snapshot
	if cfg.CheckpointPath != "" {
		if _, statErr := os.Stat(cfg.CheckpointPath); statErr == nil {
			var loadErr error
			snap, loadErr = runstate.Load(cfg.CheckpointPath)
			if loadErr != nil {
				if !errors.Is(loadErr, runstate.ErrCorrupt) {
					return nil, fmt.Errorf("autotune: loading checkpoint: %w", loadErr)
				}
				// A damaged checkpoint is a recoverable loss, not a
				// reason to refuse to tune: warn, cold-start, and let
				// the next periodic snapshot overwrite the wreckage.
				cfg.logf("warning: ignoring corrupt checkpoint %s, starting cold: %v", cfg.CheckpointPath, loadErr)
				snap = nil
			}
		}
	}
	src := pool.NewUniform(sp, poolR.Seed(), cfg.PoolSize)
	if snap != nil {
		res, err = core.Resume(ctx, snap, src, modelEv, strat, params, nil)
	} else {
		res, err = core.Run(ctx, src, modelEv, strat, params, loopR, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("autotune: model phase: %w", err)
	}
	if cfg.CheckpointPath != "" {
		// The phase completed; a stale snapshot would otherwise make
		// the next fresh run resume into an already-finished loop.
		if rmErr := os.Remove(cfg.CheckpointPath); rmErr != nil && !os.IsNotExist(rmErr) {
			return nil, fmt.Errorf("autotune: clearing checkpoint: %w", rmErr)
		}
	}
	out := &Outcome{
		ModelCost: metrics.CumulativeCost(res.TrainY),
		RealRuns:  len(res.TrainY),
	}

	// Phase 2: heuristic search over the surrogate (free).
	model := res.Model
	obj := func(c space.Config) float64 { return model.Predict(sp.Encode(c)) }
	sres, err := searcher(sp, obj, cfg.SearchBudget, r.Split())
	if err != nil {
		return nil, fmt.Errorf("autotune: search phase: %w", err)
	}
	out.SearchEvaluations = sres.Evaluations

	// Phase 3: verify the search winner plus the best predicted labeled
	// configs and distinct random elite candidates.
	candidates := topCandidates(sp, model, sres, res, cfg.Verify)
	bestV := 0.0
	for i, c := range candidates {
		v, err := ev.Evaluate(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("autotune: verify phase: %w", err)
		}
		out.RealRuns++
		if i == 0 || v < bestV {
			bestV = v
			out.Best = c.Clone()
		}
	}
	out.BestMeasured = bestV
	out.PredictedBest = obj(out.Best)

	baseline := make(space.Config, sp.NumParams())
	out.BaselineMeasured, err = ev.Evaluate(ctx, baseline)
	if err != nil {
		return nil, fmt.Errorf("autotune: baseline measurement: %w", err)
	}
	out.RealRuns++
	if out.BestMeasured > 0 {
		out.Speedup = out.BaselineMeasured / out.BestMeasured
	}
	return out, nil
}

// topCandidates assembles up to n distinct verification candidates: the
// search winner first, then the best labeled configurations by measured
// time.
func topCandidates(sp *space.Space, model core.Model, sres *search.Result, ares *core.Result, n int) []space.Config {
	out := []space.Config{sres.Best}
	seen := map[string]bool{sres.Best.Key(): true}

	order := make([]int, len(ares.TrainY))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ares.TrainY[order[a]] < ares.TrainY[order[b]] })
	for _, i := range order {
		if len(out) >= n {
			break
		}
		c := ares.TrainConfigs[i]
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		out = append(out, c)
	}
	return out
}
