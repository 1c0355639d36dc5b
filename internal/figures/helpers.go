package figures

import (
	"context"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
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
