package experiment

// Campaign glue: flattens a (problem × strategy × repetition) grid into
// campaign.Task cells, drains them through the work-stealing scheduler,
// and aggregates per-cell results back into CurveSets. The single-flight
// dataset cache exploits that every strategy at repetition r shares the
// rep seed rng.Mix(Seed, r): the first cell to arrive builds (and
// measures) the repetition's pool/test split, the other strategies reuse
// it together with the already-encoded test matrix.

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// CampaignItem is one problem in a campaign with the scale to run it at
// (application figures typically use a different scale than kernels).
type CampaignItem struct {
	Problem bench.Problem
	Scale   Scale
}

// Campaign is a full figure campaign: every strategy on every item.
type Campaign struct {
	Items      []CampaignItem
	Strategies []string

	// Seed is the experiment seed. Repetition r of every (item,
	// strategy) cell derives its seed as rng.Mix(Seed, r), never from
	// the schedule, so campaign results are bit-identical to sequential
	// per-strategy runs with the same seed.
	Seed uint64

	// Workers bounds the global worker pool; <= 0 means GOMAXPROCS.
	Workers int
}

// QuarantinedTask names one campaign cell whose evaluator panicked. The
// worker recovered the panic; the cell's repetition is excluded from
// its curve set's averages and every other cell completed normally.
type QuarantinedTask struct {
	// Problem and Strategy are the cell's names; Rep its repetition.
	Problem, Strategy string
	Rep               int

	// Value is the recovered panic value; Stack the goroutine stack at
	// recovery.
	Value interface{}
	Stack string
}

// CampaignResult holds the aggregated curves and the drain's telemetry.
type CampaignResult struct {
	// Curves maps each item's problem name to its curve sets in
	// Strategies order. A cell that produced no checkpoints (e.g. a
	// cancellation before any repetition's first checkpoint) holds nil.
	Curves map[string][]*CurveSet

	// Quarantined lists the (problem, strategy, rep) cells whose
	// evaluator panicked, with the recovered value and stack trace.
	Quarantined []QuarantinedTask

	// Scheduler describes the drain: pool size, steals, utilization.
	Scheduler campaign.Stats

	// Datasets describes the dataset cache: builds, hits, labels saved.
	Datasets campaign.CacheStats
}

// RunCampaign drains the whole campaign grid through one bounded
// work-stealing worker pool. Compared to looping RunAll over problems it
// exposes (items × strategies × reps)-way parallelism instead of
// Reps-way, and builds each repetition dataset once per problem instead
// of once per strategy.
//
// Cancelling ctx lets every in-flight cell record the checkpoints it
// reached; each curve set averages the repetitions that reached a
// checkpoint over the checkpoints all of them reached, and the first
// cell error is returned alongside the result. The result is
// nil only when a strategy name is unknown, which is rejected before any
// labeling runs.
//
// A cell whose evaluator panics is quarantined: the worker recovers the
// panic, the poisoned repetition is excluded from its curve set and
// listed in CampaignResult.Quarantined with its stack trace, and every
// other cell drains to completion.
func RunCampaign(ctx context.Context, c Campaign) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, it := range c.Items {
		for _, name := range c.Strategies {
			if _, err := strategyFor(name, it.Scale.Alpha); err != nil {
				return nil, fmt.Errorf("experiment: %s/%s: %w", it.Problem.Name(), name, err)
			}
		}
	}

	cache := campaign.NewDatasets()
	prov := cachedProvider(cache)
	results := make([][][]repResult, len(c.Items))
	var tasks []campaign.Task
	for ii, it := range c.Items {
		results[ii] = make([][]repResult, len(c.Strategies))
		for si, name := range c.Strategies {
			results[ii][si] = make([]repResult, it.Scale.Reps)
			for rep := 0; rep < it.Scale.Reps; rep++ {
				tasks = append(tasks, campaign.Task{
					Problem: ii, Strategy: si, Rep: rep,
					Run: func(ctx context.Context) {
						results[ii][si][rep] = runOnce(ctx, it.Problem, name, it.Scale,
							rng.Mix(c.Seed, uint64(rep)), prov)
					},
				})
			}
		}
	}

	res := &CampaignResult{Curves: make(map[string][]*CurveSet, len(c.Items))}
	res.Scheduler = campaign.Run(ctx, c.Workers, tasks)
	res.Datasets = cache.Stats()

	// A panicked cell never assigned its repResult; mark it so the
	// aggregation excludes just that repetition instead of indexing an
	// empty curve, and surface the quarantine with its stack trace.
	for _, p := range res.Scheduler.Panics {
		it := c.Items[p.Problem]
		name := c.Strategies[p.Strategy]
		results[p.Problem][p.Strategy][p.Rep] = repResult{
			err: fmt.Errorf("%w: %s/%s rep %d: %v", ErrRepPanic, it.Problem.Name(), name, p.Rep, p.Value),
		}
		res.Quarantined = append(res.Quarantined, QuarantinedTask{
			Problem: it.Problem.Name(), Strategy: name, Rep: p.Rep,
			Value: p.Value, Stack: p.Stack,
		})
	}

	var firstErr error
	for ii, it := range c.Items {
		sets := make([]*CurveSet, len(c.Strategies))
		for si, name := range c.Strategies {
			cs, err := aggregate(ctx, it.Problem.Name(), name, it.Scale, results[ii][si])
			sets[si] = cs
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("experiment: %s/%s: %w", it.Problem.Name(), name, err)
			}
		}
		res.Curves[it.Problem.Name()] = sets
	}
	return res, firstErr
}

// cachedProvider adapts the campaign dataset cache to a runOnce
// provider. It consumes one r.Split() whatever the cache outcome, so the
// repetition's downstream generator stream is bit-identical to that of
// a repetition building its own dataset from r.Split(); and because
// every strategy at one repetition passes an identically-seeded child,
// whichever cell builds first produces the exact dataset any of them
// would have.
func cachedProvider(cache *campaign.Datasets) datasetProvider {
	return func(ctx context.Context, p bench.Problem, sc Scale, repSeed uint64, r *rng.RNG) (*dataset.Dataset, [][]float64, error) {
		child := r.Split()
		key := campaign.Key{Problem: p.Name(), Seed: repSeed, PoolSize: sc.PoolSize, TestSize: sc.TestSize}
		return cache.Get(ctx, key, func() (*dataset.Dataset, error) {
			return dataset.Build(ctx, p, sc.PoolSize, sc.TestSize, child)
		})
	}
}
