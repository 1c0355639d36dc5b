package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
)

// campaignKernels and campaignStrategies shape campaign-fig2 like the
// Fig. 2 grid: the first SPAPT kernels × the six strategies × Quick()'s
// three repetitions, drained with the default worker count. It is the
// only workload on the materialized core.Run path, the dataset cache
// and the work-stealing scheduler; it uses no HTTP, checkpoints or
// streaming.
var (
	campaignKernels    = []string{"adi", "atax"}
	campaignStrategies = []string{"PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Random"}
)

func init() {
	register(&workload{name: "campaign-fig2", setup: startCampaign, layers: campaignLayers})
}

type campaignEnv struct {
	o        *opts
	tr       *tracer
	scale    experiment.Scale // of the timed drains
	problems []bench.Problem

	mu      sync.Mutex
	current spanID // the drain span fits nest under
	group   string
}

// campaign builds the grid at scale sc with seed; timed drains of a
// traced pass wrap the Fitter.
func (e *campaignEnv) campaign(sc experiment.Scale, seed uint64, timed bool) experiment.Campaign {
	c := experiment.Campaign{Strategies: campaignStrategies, Seed: seed}
	if e.tr != nil && timed {
		sc.Fitter = fitSpan(e.tr, sc.Forest, func() (spanID, string) {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.current, e.group
		})
	}
	for _, p := range e.problems {
		c.Items = append(c.Items, experiment.CampaignItem{Problem: p, Scale: sc})
	}
	return c
}

// warmScale is the set-up's warm-up drain: the same grid at Smoke size
// with two repetitions.
func warmScale() experiment.Scale {
	sc := experiment.Smoke()
	sc.Reps = 2
	return sc
}

func startCampaign(o *opts, _ string, tr *tracer) (env, error) {
	return startCampaignAt(o, tr, experiment.Quick())
}

// startCampaignAt builds the campaign environment with its timed drains
// at scale sc; set-up runs the warm-up drain.
func startCampaignAt(o *opts, tr *tracer, sc experiment.Scale) (*campaignEnv, error) {
	e := &campaignEnv{o: o, tr: tr, scale: sc}
	for _, name := range campaignKernels {
		p, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		e.problems = append(e.problems, p)
	}
	res, err := experiment.RunCampaign(context.Background(), e.campaign(warmScale(), o.unitSeed("warm"), false))
	if err != nil {
		return nil, fmt.Errorf("warm-up drain: %w", err)
	}
	if len(res.Quarantined) > 0 {
		return nil, fmt.Errorf("warm-up drain quarantined %d cells", len(res.Quarantined))
	}
	return e, nil
}

func (e *campaignEnv) close() {}

// run drains campaigns back to back, each with its own seed, until the
// deadline.
func (e *campaignEnv) run(ctx context.Context, deadline time.Time) (*passResult, error) {
	res := &passResult{outputs: map[string]string{}, samples: map[string][]float64{}}
	sc := e.scale
	cells := len(e.problems) * len(campaignStrategies) * sc.Reps
	mark := markMem()
	start := time.Now()
	var drains []*experiment.CampaignResult
	var walls []time.Duration // every unit's, for the stopping rule
	for k := 0; fits(deadline, walls); k++ {
		var id spanID
		var spanStart time.Duration
		group := fmt.Sprintf("drain%d", k)
		if e.tr != nil {
			id, spanStart = e.tr.open()
			e.mu.Lock()
			e.current, e.group = id, group
			e.mu.Unlock()
		}
		t0 := time.Now()
		cr, err := experiment.RunCampaign(ctx, e.campaign(sc, e.o.unitSeed("campaign", k), true))
		wall := time.Since(t0)
		walls = append(walls, wall)
		e.tr.close(id, 0, group, "campaign.drain", spanStart, nil)
		if err != nil {
			return nil, fmt.Errorf("drain %d: %w", k, err)
		}
		res.attempted += int64(cells)
		res.failed += int64(len(cr.Quarantined))
		for _, q := range cr.Quarantined {
			res.problemf("drain %d: cell %s/%s rep %d quarantined: %v", k, q.Problem, q.Strategy, q.Rep, q.Value)
		}
		out, err := campaignOutput(cr, e.problems, sc)
		if err != nil {
			res.problemf("drain %d: %v", k, err)
			continue
		}
		res.outputs[group] = out
		res.units = append(res.units, wall)
		res.labels += int64(cells * sc.NMax)
		res.done++
		drains = append(drains, cr)
	}
	res.wall = time.Since(start)
	res.memDelta(mark)
	res.heapMB = liveHeapMB()
	res.rate = unitRate(cells*sc.NMax, res.units)
	res.campaign = drains
	return res, nil
}

// campaignOutput checks every curve is complete and finite and renders
// the curves canonically.
func campaignOutput(cr *experiment.CampaignResult, problems []bench.Problem, sc experiment.Scale) (string, error) {
	type curve struct {
		Samples      []int
		RMSE, Std, C []float64
	}
	out := map[string]curve{}
	for _, p := range problems {
		sets := cr.Curves[p.Name()]
		if len(sets) != len(campaignStrategies) {
			return "", fmt.Errorf("%s: %d curve sets, want %d", p.Name(), len(sets), len(campaignStrategies))
		}
		for i, cs := range sets {
			if cs == nil || cs.Reps != sc.Reps || len(cs.Samples) == 0 || cs.Samples[len(cs.Samples)-1] != sc.NMax {
				return "", fmt.Errorf("%s/%s: incomplete curve set", p.Name(), campaignStrategies[i])
			}
			for _, v := range append(append(append([]float64(nil), cs.RMSE...), cs.RMSEStd...), cs.CC...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return "", fmt.Errorf("%s/%s: non-finite curve value", p.Name(), cs.Strategy)
				}
			}
			out[p.Name()+"/"+cs.Strategy] = curve{cs.Samples, cs.RMSE, cs.RMSEStd, cs.CC}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// campaignLayers reads the scheduler and dataset-cache counters the
// harness reports, and the fit spans of the traced pass.
func campaignLayers(timed, traced *passResult, spans []span) map[string]float64 {
	ix := indexSpans(spans)
	perDrain := func(f func(*experiment.CampaignResult) float64, drains []*experiment.CampaignResult) float64 {
		var xs []float64
		for _, d := range drains {
			xs = append(xs, f(d))
		}
		return mean(xs)
	}
	var fitTotal time.Duration
	for _, s := range ix.byName["forest.fit"] {
		fitTotal += s.dur()
	}
	var busy time.Duration
	for _, d := range traced.campaign {
		busy += d.Scheduler.Busy
	}
	nonfit := 0.0
	if n := len(traced.campaign); n > 0 {
		nonfit = (busy - fitTotal).Seconds() / float64(n)
	}
	return map[string]float64{
		"forest.fit_ms": ix.meanMs("forest.fit"),
		"forest.fits":   ix.perUnit("forest.fit", traced.outputs),
		"campaign.busy_s": perDrain(func(d *experiment.CampaignResult) float64 {
			return d.Scheduler.Busy.Seconds()
		}, timed.campaign),
		"campaign.utilization": perDrain(func(d *experiment.CampaignResult) float64 {
			return d.Scheduler.Utilization
		}, timed.campaign),
		"campaign.steals": perDrain(func(d *experiment.CampaignResult) float64 {
			return float64(d.Scheduler.Steals)
		}, timed.campaign),
		"dataset.builds": perDrain(func(d *experiment.CampaignResult) float64 {
			return float64(d.Datasets.Builds)
		}, timed.campaign),
		"dataset.hits": perDrain(func(d *experiment.CampaignResult) float64 {
			return float64(d.Datasets.Hits)
		}, timed.campaign),
		"experiment.nonfit_s": nonfit,
	}
}
