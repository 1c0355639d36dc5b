// Package transfer implements the paper's future-work experiment: the
// portability of performance models across platforms ("to avoid building
// models from scratch when encountering new kernels or platforms",
// §VI).
//
// The setting: a kernel has been modeled thoroughly on a *source*
// platform; the same kernel must now be modeled on a *target* platform
// with as few target-platform runs as possible. The transfer mechanism
// is multiplicative residual learning: the target model predicts the
// *correction ratio* y_target / ŷ_source and the final prediction is
// ŷ_source(x) × correction(x). Because the two platforms share most of
// the response-surface structure (the same transformations help or hurt
// in the same places, with different constants), the correction is
// nearly constant and a handful of target labels pin it down — so the
// transferred model reaches a given accuracy with far fewer target
// labels than a from-scratch model. The source prediction is also
// appended as an input feature of the correction forest (stacking), so
// structured corrections remain learnable at larger budgets.
package transfer

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// Config sizes a transfer experiment.
type Config struct {
	// SourceBudget is the number of source-platform labels used to build
	// the source model (source runs are treated as sunk cost).
	SourceBudget int

	// TargetBudgets are the target-label budgets at which both models
	// are evaluated (ascending).
	TargetBudgets []int

	// PoolSize/TestSize split the target dataset.
	PoolSize, TestSize int

	// Alpha is the RMSE@α metric parameter.
	Alpha float64

	// Forest configures all models.
	Forest forest.Config
}

// Default returns a moderate-size experiment configuration.
func Default() Config {
	return Config{
		SourceBudget:  300,
		TargetBudgets: []int{10, 20, 40, 80, 160},
		PoolSize:      1500,
		TestSize:      600,
		Alpha:         0.05,
		Forest:        forest.Config{NumTrees: 48},
	}
}

// Result compares from-scratch and transfer modeling on the target.
type Result struct {
	Kernel         string
	SourcePlatform string
	TargetPlatform string

	// Budgets[i] target labels give ColdRMSE[i] (fresh model) and
	// TransferRMSE[i] (stacked model reusing the source model).
	Budgets      []int
	ColdRMSE     []float64
	TransferRMSE []float64

	// SourceOnlyRMSE is the error of applying the source model to the
	// target with zero target labels (scaling mismatch included).
	SourceOnlyRMSE float64
}

// Run executes the experiment: source and target must share a parameter
// space (e.g. a SPAPT kernel and its WithPlatform variant).
func Run(ctx context.Context, source, target bench.Problem, cfg Config, seed uint64) (*Result, error) {
	if source.Space().NumParams() != target.Space().NumParams() {
		return nil, fmt.Errorf("transfer: source and target spaces differ")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := rng.New(seed)

	// Build the source model with PWU active learning on the source
	// platform.
	srcPool := source.Space().SampleConfigs(r.Split(), cfg.PoolSize)
	srcRes, err := core.Run(ctx, pool.NewSlice(source.Space(), srcPool), bench.Evaluator(source, r.Split()),
		core.PWU{Alpha: cfg.Alpha},
		core.Params{NInit: 10, NBatch: 5, NMax: cfg.SourceBudget, Forest: cfg.Forest}, r.Split(), nil)
	if err != nil {
		return nil, fmt.Errorf("transfer: source model: %w", err)
	}
	srcModel := srcRes.Model

	// Target data: pool + pre-measured test set.
	ds, err := dataset.Build(ctx, target, cfg.PoolSize, cfg.TestSize, r.Split())
	if err != nil {
		return nil, err
	}
	testX := ds.TestX()

	res := &Result{
		Kernel:         target.Name(),
		SourcePlatform: source.Platform().Name,
		TargetPlatform: target.Platform().Name,
	}

	// Zero-shot: the source model applied directly to the target.
	srcPred, _ := srcModel.PredictBatch(testX)
	res.SourceOnlyRMSE = metrics.RMSEAtAlpha(ds.TestY, srcPred, cfg.Alpha)

	// Stacked feature schema: original columns plus the source
	// prediction.
	features := target.Space().Features()
	stackedFeatures := append(append([]space.Feature(nil), features...),
		space.Feature{Name: "__source_pred", Kind: space.FeatNumeric})
	stack := func(X [][]float64) [][]float64 {
		mu, _ := srcModel.PredictBatch(X)
		out := make([][]float64, len(X))
		for i := range X {
			out[i] = append(append([]float64(nil), X[i]...), mu[i])
		}
		return out
	}
	stackedTestX := stack(testX)

	// Shared target labels: one random draw covering the largest budget,
	// so every budget is a prefix (paired comparison).
	maxBudget := cfg.TargetBudgets[len(cfg.TargetBudgets)-1]
	if maxBudget > len(ds.Pool) {
		return nil, fmt.Errorf("transfer: budget %d exceeds pool %d", maxBudget, len(ds.Pool))
	}
	order := r.Sample(len(ds.Pool), maxBudget)
	ev := bench.Evaluator(target, r.Split())
	labX := make([][]float64, maxBudget)
	labY := make([]float64, maxBudget)
	for i, idx := range order {
		labX[i] = target.Space().Encode(ds.Pool[idx])
		y, err := ev.Evaluate(ctx, ds.Pool[idx])
		if err != nil {
			return nil, fmt.Errorf("transfer: target label %d/%d: %w", i+1, maxBudget, err)
		}
		labY[i] = y
	}
	stackedLabX := stack(labX)

	// Correction-ratio targets: y_target / ŷ_source for the labeled rows.
	srcOnLabels, _ := srcModel.PredictBatch(labX)
	ratios := make([]float64, maxBudget)
	for i := range ratios {
		ratios[i] = labY[i] / positive(srcOnLabels[i])
	}
	srcOnTest, _ := srcModel.PredictBatch(testX)

	for _, budget := range cfg.TargetBudgets {
		if budget < 2 {
			return nil, fmt.Errorf("transfer: budget %d too small", budget)
		}
		cold, err := forest.Fit(labX[:budget], labY[:budget], features, cfg.Forest, r.Split())
		if err != nil {
			return nil, err
		}
		coldPred, _ := cold.PredictBatch(testX)

		// Regularize the correction at small budgets: wide leaves make
		// the forest interpolate toward the global mean ratio (a pure
		// rescaling) until enough target labels support structure.
		corrCfg := cfg.Forest
		if reg := 1 + budget/10; corrCfg.Tree.MinSamplesLeaf < reg {
			corrCfg.Tree.MinSamplesLeaf = reg
		}
		if corrCfg.Tree.MinSamplesLeaf > 5 {
			corrCfg.Tree.MinSamplesLeaf = 5
		}
		corr, err := forest.Fit(stackedLabX[:budget], ratios[:budget], stackedFeatures, corrCfg, r.Split())
		if err != nil {
			return nil, err
		}
		corrPred, _ := corr.PredictBatch(stackedTestX)
		warmPred := make([]float64, len(testX))
		for i := range warmPred {
			warmPred[i] = positive(srcOnTest[i]) * corrPred[i]
		}

		res.Budgets = append(res.Budgets, budget)
		res.ColdRMSE = append(res.ColdRMSE, metrics.RMSEAtAlpha(ds.TestY, coldPred, cfg.Alpha))
		res.TransferRMSE = append(res.TransferRMSE, metrics.RMSEAtAlpha(ds.TestY, warmPred, cfg.Alpha))
	}
	return res, nil
}

// positive clamps a source prediction to a tiny positive floor so ratio
// targets stay finite (execution times are positive, but a degenerate
// model could emit 0).
func positive(v float64) float64 {
	if v < 1e-12 {
		return 1e-12
	}
	return v
}
