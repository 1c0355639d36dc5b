package figures

import (
	"context"
	"math"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// speedupFromCurves computes the Fig. 7 statistic from two curve sets.
func speedupFromCurves(pwu, pbus *experiment.CurveSet) (speedup, target float64, ok bool) {
	return metrics.SpeedupToTarget(pwu.RMSECurve(), pwu.CCCurve(), pbus.RMSECurve(), pbus.CCCurve(), 1.05)
}

// surrogateModel builds the Fig. 8 surrogate: the model produced by a
// PWU active-learning run at the given scale.
func surrogateModel(ctx context.Context, p bench.Problem, sc experiment.Scale, r *rng.RNG) (core.Model, error) {
	ds, err := dataset.Build(ctx, p, sc.PoolSize, sc.TestSize, r.Split())
	if err != nil {
		return nil, err
	}
	res, err := core.Run(ctx, pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: sc.Alpha},
		core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax, Forest: sc.Forest}, r.Split(), nil)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

// surrogateEvaluator is Fig. 8's surrogate annotator: it labels a
// configuration with the model's prediction instead of a measurement.
func surrogateEvaluator(sp *space.Space, model core.Model) core.Evaluator {
	return core.EvaluatorFunc(func(_ context.Context, c space.Config) (float64, error) {
		return model.Predict(sp.Encode(c)), nil
	})
}

// tuneTrace runs the Fig. 8 tuner — Algorithm 1 with BestPerf and a
// batch of one — over the candidate set, labeling with ev. It returns
// the true execution time of the best configuration labeled so far:
// point 0 after the nInit cold-start labels, then one point per tuning
// iteration. The tracked best is always scored with the true model,
// whatever the annotator. Tuning stops early once every candidate is
// labeled.
func tuneTrace(ctx context.Context, p bench.Problem, cands []space.Config, ev core.Evaluator, nInit, iterations int, fc forest.Config, r *rng.RNG) ([]float64, error) {
	res, err := core.Run(ctx, pool.NewSlice(p.Space(), cands), ev, core.BestPerf{},
		core.Params{NInit: nInit, NBatch: 1, NMax: min(nInit+iterations, len(cands)), Forest: fc}, r, nil)
	if err != nil {
		return nil, err
	}
	best := make([]float64, 0, iterations+1)
	cur := math.Inf(1)
	for i, c := range res.TrainConfigs {
		if t := p.TrueTime(c); t < cur {
			cur = t
		}
		if i >= nInit-1 {
			best = append(best, cur)
		}
	}
	return best, nil
}
