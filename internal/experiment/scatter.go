package experiment

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
)

// Scatter is the data behind one panel of Fig. 9: the (μ, σ) belief of
// the final model over the whole pool, plus the (μ, σ) at selection time
// of every sample the strategy picked during the run.
type Scatter struct {
	Benchmark string
	Strategy  string

	// PoolMu/PoolSigma are the final model's beliefs over the pool
	// (the grey "·" points of Fig. 9).
	PoolMu, PoolSigma []float64

	// SelMu/SelSigma are the selection-time beliefs of the selected
	// samples (the green "×" points).
	SelMu, SelSigma []float64
}

// SelectionScatter runs Algorithm 1 once with selection recording and
// returns the Fig. 9 scatter data for the given strategy.
func SelectionScatter(ctx context.Context, p bench.Problem, strategyName string, sc Scale, seed uint64) (*Scatter, error) {
	r := rng.New(seed)
	ds, err := dataset.Build(ctx, p, sc.PoolSize, sc.TestSize, r.Split())
	if err != nil {
		return nil, err
	}
	strat, err := strategyFor(strategyName, sc.Alpha)
	if err != nil {
		return nil, err
	}
	ev := bench.Evaluator(p, r.Split())
	params := core.Params{
		NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax,
		Forest: sc.Forest, RecordSelections: true,
	}
	res, err := core.Run(ctx, pool.NewSlice(p.Space(), ds.Pool), ev, strat, params, r, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: scatter %s/%s: %w", p.Name(), strategyName, err)
	}
	poolX := p.Space().EncodeAll(ds.Pool)
	mu, sigma := res.Model.PredictBatch(poolX)
	s := &Scatter{
		Benchmark: p.Name(), Strategy: strategyName,
		PoolMu: mu, PoolSigma: sigma,
	}
	for _, sel := range res.Selections {
		s.SelMu = append(s.SelMu, sel.Mu)
		s.SelSigma = append(s.SelSigma, sel.Sigma)
	}
	return s, nil
}

// SpeedupRow is one bar of Fig. 7: the cumulative-cost speedup of PWU
// over PBUS to first reach a shared RMSE target on one benchmark.
type SpeedupRow struct {
	Benchmark string
	Speedup   float64
	Target    float64
	OK        bool
}

// PWUSpeedups computes Fig. 7 for each problem: run PWU and PBUS,
// choose the target as the slower method's converged RMSE with 5%
// headroom, and report cost(PBUS)/cost(PWU). The whole
// (problem × {PWU, PBUS} × repetition) grid drains through one campaign
// (see RunCampaign), with both strategies sharing each repetition's
// dataset.
func PWUSpeedups(ctx context.Context, problems []bench.Problem, sc Scale, seed uint64) ([]SpeedupRow, error) {
	items := make([]CampaignItem, len(problems))
	for i, p := range problems {
		items[i] = CampaignItem{Problem: p, Scale: sc}
	}
	res, err := RunCampaign(ctx, Campaign{
		Items: items, Strategies: []string{"PWU", "PBUS"},
		Seed: seed, Workers: sc.Workers,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SpeedupRow, 0, len(problems))
	for _, p := range problems {
		sets := res.Curves[p.Name()]
		pwu, pbus := sets[0], sets[1]
		sp, target, ok := metrics.SpeedupToTarget(pwu.RMSECurve(), pwu.CCCurve(), pbus.RMSECurve(), pbus.CCCurve(), 1.05)
		rows = append(rows, SpeedupRow{Benchmark: p.Name(), Speedup: sp, Target: target, OK: ok})
	}
	return rows, nil
}
