// Package experiment is the figure harness: it runs repetitions of
// Algorithm 1 for (benchmark, strategy) pairs, evaluates the model at
// every checkpoint with the paper's metrics (RMSE@α on the held-out test
// set, cumulative labeling cost CC), and averages the resulting learning
// curves over repetitions — the exact procedure behind Figs. 2–7.
//
// Repetitions run in parallel on the campaign engine; each derives an
// independent seed from the experiment seed, so results are reproducible
// regardless of GOMAXPROCS.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
)

// Scale bundles every size knob of an experiment so the same harness can
// run at paper scale or at a fast benchmark scale.
type Scale struct {
	// PoolSize and TestSize are the dataset split (paper: 7000/3000).
	PoolSize, TestSize int

	// NInit, NBatch, NMax parameterise Algorithm 1 (paper: 10/1/500).
	NInit, NBatch, NMax int

	// Reps is the number of repeated experiments averaged (paper: 10).
	Reps int

	// Alpha is the high-performance proportion for both the PWU score
	// and the RMSE@α metric (paper default: 0.05; also 0.01 and 0.10).
	Alpha float64

	// EvalEvery evaluates metrics at every EvalEvery-th labeled sample
	// (1 = every iteration, as in the paper; larger values thin the
	// checkpoints to speed up benchmark-scale runs).
	EvalEvery int

	// Forest configures the surrogate model.
	Forest forest.Config

	// Fitter overrides the surrogate model builder; nil means random
	// forest with the Forest configuration (see core.Params.Fitter).
	Fitter core.Fitter

	// WarmUpdate refreshes the surrogate incrementally between
	// iterations instead of refitting from scratch (see
	// core.Params.WarmUpdate). Warm runs keep one forest alive across
	// checkpoints, which lets the harness serve every checkpoint's
	// test-set evaluation from the forest's per-tree prediction cache.
	WarmUpdate bool

	// Failure is the engine's retry/timeout policy for failing or
	// hanging evaluations (see core.FailurePolicy). The zero value
	// keeps the historical behavior: no retries, no deadline.
	Failure core.FailurePolicy

	// Guard screens loop-phase labels against the surrogate's
	// prediction interval (see core.LabelGuard); the zero value
	// disables it.
	Guard core.LabelGuard

	// Chaos injects deterministic faults into every repetition's
	// evaluator (see chaos.Scenario). Each repetition derives its fault
	// streams from (Chaos.Seed, rep seed), so a chaos campaign is as
	// reproducible as a clean one. The zero scenario injects nothing.
	Chaos chaos.Scenario

	// Workers bounds run-level parallelism (the strategy × repetition
	// grid of RunStrategy and RunAll, the whole task grid of
	// RunCampaign); <= 0 means GOMAXPROCS.
	Workers int
}

// Paper returns the paper-scale settings of §III-D with α = 0.05.
func Paper() Scale {
	return Scale{
		PoolSize: 7000, TestSize: 3000,
		NInit: 10, NBatch: 1, NMax: 500,
		Reps: 10, Alpha: 0.05, EvalEvery: 1,
		Forest: forest.Config{NumTrees: 64},
	}
}

// Quick returns a reduced scale that preserves the experiment's shape
// but completes in seconds per (benchmark, strategy): smaller pool,
// fewer labels, fewer repetitions, thinner checkpoints.
func Quick() Scale {
	return Scale{
		PoolSize: 1200, TestSize: 500,
		NInit: 10, NBatch: 5, NMax: 160,
		Reps: 3, Alpha: 0.05, EvalEvery: 10,
		Forest: forest.Config{NumTrees: 32},
	}
}

// QuickApp returns the reduced scale used for the kripke/hypre
// application figures. The applications need the paper's batch size of 1
// to show their characteristic shapes (hypre's biased samplers overtake
// random only after a few hundred single-sample iterations), and their
// small parameter spaces make the extra refits cheap.
func QuickApp() Scale {
	return Scale{
		PoolSize: 2000, TestSize: 800,
		NInit: 10, NBatch: 1, NMax: 300,
		Reps: 3, Alpha: 0.05, EvalEvery: 10,
		Forest: forest.Config{NumTrees: 48},
	}
}

// Smoke returns the smallest useful scale, for unit tests.
func Smoke() Scale {
	return Scale{
		PoolSize: 300, TestSize: 150,
		NInit: 8, NBatch: 10, NMax: 60,
		Reps: 2, Alpha: 0.1, EvalEvery: 10,
		Forest: forest.Config{NumTrees: 16},
	}
}

// CurveSet is the averaged learning curves of one strategy on one
// benchmark: RMSE@α and CC as functions of the number of labeled
// samples.
type CurveSet struct {
	Benchmark string
	Strategy  string
	Alpha     float64

	// Samples are the checkpoint training-set sizes.
	Samples []int

	// RMSE[i] is the mean over repetitions of RMSE@α at Samples[i];
	// RMSEStd is the between-repetition standard deviation.
	RMSE    []float64
	RMSEStd []float64

	// CC[i] is the mean cumulative labeling cost at Samples[i].
	CC []float64

	// Stats aggregates the run engine's telemetry over every completed
	// repetition (fit/select/eval wall time, retries, skips, guard activity).
	Stats core.RunStats

	// Reps is the number of repetitions the curves average; it equals
	// the scale's Reps except for partial results after a cancellation.
	Reps int
}

// merge accumulates one repetition's engine telemetry.
func (c *CurveSet) merge(s core.RunStats) {
	c.Stats.FitTime += s.FitTime
	c.Stats.SelectTime += s.SelectTime
	c.Stats.EvalTime += s.EvalTime
	c.Stats.EvalRetries += s.EvalRetries
	c.Stats.EvalTimeouts += s.EvalTimeouts
	c.Stats.EvalSkips += s.EvalSkips
	c.Stats.FailedCost += s.FailedCost
	c.Stats.GuardFlagged += s.GuardFlagged
	c.Stats.GuardRemeasured += s.GuardRemeasured
	c.Stats.GuardQuarantined += s.GuardQuarantined
	c.Stats.GuardCost += s.GuardCost
	c.Stats.Events += s.Events
}

// RMSECurve returns the RMSE learning curve as a metrics.Curve.
func (c *CurveSet) RMSECurve() metrics.Curve {
	return metrics.Curve{Samples: c.Samples, Values: c.RMSE}
}

// CCCurve returns the cost curve as a metrics.Curve.
func (c *CurveSet) CCCurve() metrics.Curve {
	return metrics.Curve{Samples: c.Samples, Values: c.CC}
}

// strategyFor instantiates the named strategy with the scale's α.
func strategyFor(name string, alpha float64) (core.Strategy, error) {
	return core.ByName(name, alpha)
}

// repResult is one repetition's outcome. On cancellation rmse/cc hold
// the prefix of checkpoints reached before the interruption.
type repResult struct {
	rmse, cc []float64
	stats    core.RunStats
	err      error
}

// ErrRepPanic marks a repetition whose evaluator panicked. The campaign
// scheduler recovered the panic and quarantined the cell; aggregate
// excludes the repetition from the averages instead of failing the
// whole (problem, strategy) curve set.
var ErrRepPanic = errors.New("experiment: repetition quarantined after evaluator panic")

// RunStrategy runs sc.Reps repetitions of Algorithm 1 with the named
// strategy on problem p and returns the averaged curves: RunAll with one
// strategy. Repetition r uses an independent dataset and seed derived
// from seed, matching the paper's "10 random experiments" protocol.
//
// Cancelling ctx returns the partial curve set averaged over the
// repetitions that reached at least one checkpoint, truncated to the
// checkpoints all of them reached, alongside an error wrapping
// ctx.Err(); the partial set is nil when no repetition reached its
// first checkpoint. A repetition whose evaluator panics is quarantined
// as in RunCampaign.
func RunStrategy(ctx context.Context, p bench.Problem, strategyName string, sc Scale, seed uint64) (*CurveSet, error) {
	sets, err := RunAll(ctx, p, []string{strategyName}, sc, seed)
	if len(sets) == 0 {
		return nil, err
	}
	return sets[0], err
}

// aggregate averages repetition results into one curve set. Its errors
// do not name the (benchmark, strategy) cell; callers wrap them with it.
//
// On cancellation, only the repetitions that reached at least one
// checkpoint contribute, averaged over the common prefix of checkpoints
// they all reached; CurveSet.Reps records how many contributed. A
// repetition quarantined after an evaluator panic (ErrRepPanic) is
// excluded the same way without failing the set. The set is nil only
// when no repetition contributed. Engine telemetry is merged from every
// repetition either way — interrupted repetitions spent their
// fit/select/eval time too.
func aggregate(ctx context.Context, benchmark, strategyName string, sc Scale, reps []repResult) (*CurveSet, error) {
	checkpoints := checkpointSizes(sc)
	cancelled := false
	quarantined := 0
	var cancelErr error
	for _, rr := range reps {
		if rr.err == nil {
			continue
		}
		switch {
		case errors.Is(rr.err, ErrRepPanic):
			// A poisoned repetition: its curves are lost but the
			// healthy repetitions still average into a valid set.
			quarantined++
		case errors.Is(rr.err, context.Canceled) || errors.Is(rr.err, context.DeadlineExceeded):
			cancelled = true
			if cancelErr == nil {
				cancelErr = rr.err
			}
		default:
			return nil, rr.err
		}
	}
	if cancelled && ctx.Err() != nil {
		cancelErr = ctx.Err()
	}

	contributing := reps
	usable := len(checkpoints)
	if cancelled || quarantined > 0 {
		contributing = nil
		for _, rr := range reps {
			if errors.Is(rr.err, ErrRepPanic) {
				continue
			}
			if len(rr.rmse) > 0 {
				contributing = append(contributing, rr)
			}
		}
		if len(contributing) == 0 {
			if cancelled {
				return nil, fmt.Errorf("interrupted before the first checkpoint: %w", cancelErr)
			}
			return nil, fmt.Errorf("every repetition quarantined: %w", ErrRepPanic)
		}
		for _, rr := range contributing {
			if len(rr.rmse) < usable {
				usable = len(rr.rmse)
			}
		}
	}

	cs := &CurveSet{
		Benchmark: benchmark, Strategy: strategyName, Alpha: sc.Alpha,
		Samples: checkpoints[:usable],
		RMSE:    make([]float64, usable),
		RMSEStd: make([]float64, usable),
		CC:      make([]float64, usable),
		Reps:    len(contributing),
	}
	for i := 0; i < usable; i++ {
		var rmse, cc []float64
		for _, rr := range contributing {
			rmse = append(rmse, rr.rmse[i])
			cc = append(cc, rr.cc[i])
		}
		cs.RMSE[i] = mean(rmse)
		cs.RMSEStd[i] = stddev(rmse)
		cs.CC[i] = mean(cc)
	}
	for _, rr := range reps {
		cs.merge(rr.stats)
	}
	if cancelled {
		return cs, fmt.Errorf("interrupted at checkpoint %d/%d: %w", usable, len(checkpoints), cancelErr)
	}
	return cs, nil
}

// datasetProvider hands runOnce its repetition dataset and encoded test
// matrix. r is the repetition's root generator: a provider must consume
// exactly one r.Split() whether it builds the dataset or serves a cached
// one, so the generator stream feeding the evaluator and the engine is
// bit-identical across providers.
type datasetProvider func(ctx context.Context, p bench.Problem, sc Scale, repSeed uint64, r *rng.RNG) (*dataset.Dataset, [][]float64, error)

// testPredict evaluates the surrogate on the held-out test set. Warm
// runs keep one forest alive across checkpoints with only a few trees
// refreshed in between, so they scan the test set (test, as a source)
// through the repetition's cross-scan cache, which re-walks just those
// trees — bit-identical to PredictBatch by the pool.SlotScorer
// contract. Cold refits (cache nil) see a fresh model at every
// checkpoint, where a cache could never be reused and the plain batch
// path over the encoded matrix testX avoids carrying one.
func testPredict(m core.Model, testX [][]float64, test pool.Source, cache *pool.ScanCache) ([]float64, error) {
	ss, ok := m.(pool.SlotScorer)
	if cache == nil || !ok {
		mu, _ := m.PredictBatch(testX)
		return mu, nil
	}
	mu := make([]float64, test.Len())
	err := pool.Scan(context.Background(), test, ss, pool.ScanConfig{Cache: cache}, func(ord int, _ []float64, mean, _ float64) {
		mu[ord] = mean
	})
	return mu, err
}

// runOnce executes one repetition and returns the per-checkpoint RMSE@α
// and CC. A cancellation returns the checkpoints reached so far with the
// ctx error.
func runOnce(ctx context.Context, p bench.Problem, strategyName string, sc Scale, seed uint64, prov datasetProvider) repResult {
	var rr repResult
	r := rng.New(seed)
	ds, testX, err := prov(ctx, p, sc, seed, r)
	if err != nil {
		rr.err = err
		return rr
	}
	strat, err := strategyFor(strategyName, sc.Alpha)
	if err != nil {
		rr.err = err
		return rr
	}

	checkpoints := checkpointSizes(sc)
	want := map[int]bool{}
	for _, s := range checkpoints {
		want[s] = true
	}

	var (
		testSrc   pool.Source
		testCache *pool.ScanCache
	)
	if sc.WarmUpdate {
		testSrc = pool.NewSlice(p.Space(), ds.Test)
		testCache = pool.NewScanCache(0)
	}
	// The test labels are fixed for the repetition, so their top-α set is
	// ranked once, not at every checkpoint.
	topIdx := metrics.TopAlphaIndices(ds.TestY, sc.Alpha)
	lastRecorded := -1
	obs := func(st *core.State) error {
		n := len(st.TrainY)
		// n == lastRecorded guards against double-recording a
		// checkpoint when a whole batch is skipped under FailSkip.
		if !want[n] || n == lastRecorded {
			return nil
		}
		lastRecorded = n
		pred, err := testPredict(st.Model, testX, testSrc, testCache)
		if err != nil {
			return err
		}
		rr.rmse = append(rr.rmse, metrics.RMSEAt(ds.TestY, pred, topIdx))
		rr.cc = append(rr.cc, metrics.CumulativeCost(st.TrainY))
		return nil
	}

	var ev core.Evaluator = bench.Evaluator(p, r.Split())
	if sc.Chaos.Active() {
		// Fault streams derive from (scenario seed, rep seed): every
		// repetition misbehaves in its own reproducible way.
		ev = chaos.New(sc.Chaos, rng.Mix(sc.Chaos.Seed, seed), ev)
	}
	params := core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax,
		Forest: sc.Forest, Fitter: sc.Fitter, WarmUpdate: sc.WarmUpdate,
		Failure: sc.Failure, Guard: sc.Guard}
	res, err := core.Run(ctx, pool.NewSlice(p.Space(), ds.Pool), ev, strat, params, r, obs)
	if res != nil {
		rr.stats = res.Telemetry()
	}
	if err != nil {
		rr.err = err
		return rr
	}
	if len(rr.rmse) != len(checkpoints) {
		rr.err = fmt.Errorf("experiment: recorded %d checkpoints, want %d", len(rr.rmse), len(checkpoints))
	}
	return rr
}

// checkpointSizes lists the training-set sizes at which metrics are
// evaluated: the cold-start size, then every EvalEvery-th size reachable
// by the batch schedule, always including NMax.
//
// The sizes are normalized through core.Params.Normalized so the list
// stays in lockstep with the engine's actual labeling schedule: with the
// raw scale values a zero NBatch would never advance (the engine
// defaults it to 1) and a zero NInit/NMax would enumerate a schedule the
// engine never runs.
func checkpointSizes(sc Scale) []int {
	norm := core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax}.Normalized()
	every := sc.EvalEvery
	if every < 1 {
		every = 1
	}
	var out []int
	n := norm.NInit
	out = append(out, n)
	last := n
	for n < norm.NMax {
		n += norm.NBatch
		if n > norm.NMax {
			n = norm.NMax
		}
		if n-last >= every || n == norm.NMax {
			out = append(out, n)
			last = n
		}
	}
	return out
}

// RunAll runs every strategy in names on p and returns the curve sets
// in strategy order. The (strategy × repetition) grid drains through the
// campaign engine (see RunCampaign): one global work-stealing worker
// pool, with each repetition's dataset built once and shared by every
// strategy. Each strategy sees the same experiment seed, so repetition r
// of every strategy works on the same dataset draw; the curves are
// bit-identical to running each strategy alone, one repetition after
// another with its own dataset build, for any worker count
// (TestCampaignMatchesSequential).
//
// On cancellation it returns the curve sets that reached any checkpoint
// (partial sets, see RunStrategy) together with the first error.
func RunAll(ctx context.Context, p bench.Problem, names []string, sc Scale, seed uint64) ([]*CurveSet, error) {
	res, err := RunCampaign(ctx, Campaign{
		Items:      []CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       seed,
		Workers:    sc.Workers,
	})
	if res == nil {
		return nil, err
	}
	out := make([]*CurveSet, 0, len(names))
	for _, cs := range res.Curves[p.Name()] {
		if cs != nil {
			out = append(out, cs)
		}
	}
	return out, err
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stddev is the population standard deviation, adequate for error bars
// over repetitions.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := mean(xs)
	var acc float64
	for _, x := range xs {
		acc += (x - m) * (x - m)
	}
	return math.Sqrt(acc / float64(len(xs)))
}
