// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benchmarks for the design
// choices called out in DESIGN.md §5.
//
// Each figure benchmark regenerates the figure's data series at a
// reduced scale (experiment.Smoke) so `go test -bench .` completes in
// minutes; the shape-preserving full runs are produced by `cmd/figures
// -scale paper`. Result-quality numbers (final RMSE, speedups) are
// attached to the benchmark output via b.ReportMetric, so the benchmark
// log doubles as a results table.
package repro_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/calibration"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/hypre"
	"repro/internal/kripke"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/spapt"
	"repro/internal/transfer"
	"repro/internal/tuning"
)

// buildDataset is dataset.Build under a background context, fatal on
// error — measurement in the simulated benchmarks cannot fail.
func buildDataset(b *testing.B, p bench.Problem, poolSize, testSize int, r *rng.RNG) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.Build(context.Background(), p, poolSize, testSize, r)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// mustEval labels one configuration under a background context.
func mustEval(b *testing.B, ev core.Evaluator, c space.Config) float64 {
	b.Helper()
	y, err := ev.Evaluate(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	return y
}

// figScale is the per-benchmark-iteration experiment scale.
func figScale() experiment.Scale {
	sc := experiment.Smoke()
	sc.Reps = 2
	return sc
}

// ---- Tables ----

// BenchmarkTable1ADISpace regenerates Table I: constructing the ADI
// kernel's compilation-parameter space and its grouped summary.
func BenchmarkTable1ADISpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := spapt.ADI()
		rows := k.Table()
		if len(rows) != 5 {
			b.Fatalf("ADI table has %d rows", len(rows))
		}
	}
}

// BenchmarkTable2KripkeSpace regenerates Table II: the kripke parameter
// space and its full enumeration.
func BenchmarkTable2KripkeSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := kripke.New()
		if n, _ := k.Space().Cardinality(); n != 2304 {
			b.Fatalf("kripke cardinality %d", n)
		}
	}
}

// BenchmarkTable3HypreSpace regenerates Table III: the hypre parameter
// space.
func BenchmarkTable3HypreSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := hypre.New()
		if h.Space().NumParams() != 4 {
			b.Fatal("hypre space wrong")
		}
	}
}

// BenchmarkTable4Platforms regenerates Table IV: the two platform
// models.
func BenchmarkTable4Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pa, pb := machine.PlatformA(), machine.PlatformB()
		if pa.Cores != 24 || pb.Cores != 28 {
			b.Fatal("platform specs wrong")
		}
	}
}

// ---- Figures ----

// BenchmarkFig2KernelRMSE regenerates Fig. 2's series: RMSE@α learning
// curves for all 12 kernels under all six strategies. The reported
// pwu_final_rmse_frac metric is PWU's final RMSE as a fraction of
// PBUS's (< 1 means PWU wins, the paper's headline shape).
func BenchmarkFig2KernelRMSE(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		var fracSum float64
		var n int
		for _, p := range bench.Kernels() {
			cs, err := experiment.RunAll(context.Background(), p, core.StrategyNames(), sc, 42)
			if err != nil {
				b.Fatal(err)
			}
			byName := map[string]*experiment.CurveSet{}
			for _, c := range cs {
				byName[c.Strategy] = c
			}
			pwu := byName["PWU"].RMSE
			pbus := byName["PBUS"].RMSE
			fracSum += pwu[len(pwu)-1] / pbus[len(pbus)-1]
			n++
		}
		b.ReportMetric(fracSum/float64(n), "pwu_final_rmse_frac")
	}
}

// campaignFig2Problems is the Fig. 2 subset the campaign benchmarks
// drain: the first CAMPAIGN_BENCH_PROBLEMS kernels (default four),
// every strategy, figScale repetitions.
func campaignFig2Problems(b *testing.B) []bench.Problem {
	b.Helper()
	n := campaignBenchProblems(b)
	ks := bench.Kernels()
	if len(ks) < n {
		b.Fatalf("only %d kernels", len(ks))
	}
	return ks[:n]
}

// BenchmarkCampaignFig2 measures the campaign engine on a Fig. 2-shaped
// grid: (4 kernels × 6 strategies × reps) drained by the work-stealing
// pool with single-flight dataset sharing. Compare against
// BenchmarkCampaignFig2Sequential — same grid, same bit-identical
// curves, run strategy-by-strategy — for the engine's speedup, and
// against BenchmarkCampaignFig2Fleet (campaign_bench_test.go) for the
// fleet transport's overhead. Records a mode=local entry in the
// BENCH_campaign.json trajectory.
func BenchmarkCampaignFig2(b *testing.B) {
	sc := figScale()
	problems := campaignFig2Problems(b)
	var st campaign.Stats
	cells := 0
	for i := 0; i < b.N; i++ {
		items := make([]experiment.CampaignItem, len(problems))
		for j, p := range problems {
			items[j] = experiment.CampaignItem{Problem: p, Scale: sc}
		}
		res, err := experiment.RunCampaign(context.Background(), experiment.Campaign{
			Items: items, Strategies: core.StrategyNames(), Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Datasets.Hits), "dataset_cache_hits")
		st = res.Scheduler
		cells = res.Scheduler.Tasks
	}
	b.StopTimer()
	reportCampaign(b, "local", cells, st, 0)
}

// BenchmarkCampaignFig2Sequential is the retained pre-campaign path over
// the same grid: strategies in series, repetitions in parallel, one
// dataset build per (strategy, repetition).
func BenchmarkCampaignFig2Sequential(b *testing.B) {
	sc := figScale()
	problems := campaignFig2Problems(b)
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			if _, err := experiment.RunAllSequential(context.Background(), p, core.StrategyNames(), sc, 42); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3KernelCC regenerates Fig. 3's series: cumulative labeling
// cost per kernel per strategy, and reports MaxU's cost blow-up over
// BestPerf (the paper's most expensive vs cheapest samplers).
func BenchmarkFig3KernelCC(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		var ratioSum float64
		var n int
		for _, p := range bench.Kernels()[:4] { // representative subset per iteration
			cs, err := experiment.RunAll(context.Background(), p, []string{"BestPerf", "MaxU"}, sc, 43)
			if err != nil {
				b.Fatal(err)
			}
			cheap := cs[0].CC[len(cs[0].CC)-1]
			dear := cs[1].CC[len(cs[1].CC)-1]
			ratioSum += dear / cheap
			n++
		}
		b.ReportMetric(ratioSum/float64(n), "maxu_cc_blowup")
	}
}

// BenchmarkFig4Applications regenerates Fig. 4's series: RMSE and CC
// curves for kripke and hypre.
func BenchmarkFig4Applications(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		for _, p := range bench.Applications() {
			if _, err := experiment.RunAll(context.Background(), p, []string{"PWU", "PBUS", "Random"}, sc, 44); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5RMSEvsCost regenerates Fig. 5's series (RMSE against
// cumulative cost for the applications) and reports PWU's cost to reach
// PBUS's final error level on kripke.
func BenchmarkFig5RMSEvsCost(b *testing.B) {
	sc := figScale()
	p, err := bench.ByName("kripke")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cs, err := experiment.RunAll(context.Background(), p, []string{"PWU", "PBUS"}, sc, 45)
		if err != nil {
			b.Fatal(err)
		}
		sp, _, ok := metrics.SpeedupToTarget(cs[0].RMSECurve(), cs[0].CCCurve(), cs[1].RMSECurve(), cs[1].CCCurve(), 1.05)
		if ok {
			b.ReportMetric(sp, "kripke_cost_speedup")
		}
	}
}

// BenchmarkFig6AlphaSweep regenerates Fig. 6: PBUS vs PWU on atax at
// α in {0.01, 0.05, 0.10}.
func BenchmarkFig6AlphaSweep(b *testing.B) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.01, 0.05, 0.10} {
			sc := figScale()
			sc.Alpha = alpha
			if _, err := experiment.RunAll(context.Background(), p, []string{"PWU", "PBUS"}, sc, 46); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig7Speedup regenerates Fig. 7: the PWU-over-PBUS cumulative
// cost speedup across benchmarks, reporting the geometric-mean speedup.
func BenchmarkFig7Speedup(b *testing.B) {
	sc := figScale()
	problems := append(bench.Kernels()[:4], bench.Applications()...)
	for i := 0; i < b.N; i++ {
		rows, err := experiment.PWUSpeedups(context.Background(), problems, sc, 47)
		if err != nil {
			b.Fatal(err)
		}
		prod, n := 1.0, 0
		for _, r := range rows {
			if r.OK {
				prod *= r.Speedup
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(pow(prod, 1/float64(n)), "geomean_speedup")
		}
	}
}

// BenchmarkFig8SurrogateTuning regenerates Fig. 8: direct vs
// surrogate-annotated tuning on atax, reporting the final-quality ratio
// (1.0 = surrogate matches ground truth).
func BenchmarkFig8SurrogateTuning(b *testing.B) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	sc := figScale()
	for i := 0; i < b.N; i++ {
		r := rng.New(48)
		ds := buildDataset(b, p, sc.PoolSize, sc.TestSize, r.Split())
		res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: sc.Alpha},
			core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax, Forest: sc.Forest}, r.Split(), nil)
		if err != nil {
			b.Fatal(err)
		}
		cands := p.Space().SampleConfigs(r.Split(), 300)
		params := tuning.Params{NInit: 10, Iterations: 40, Forest: sc.Forest}
		direct, err := tuning.Run(p, cands, tuning.NewTrueAnnotator(p, r.Split()), params, rng.New(49))
		if err != nil {
			b.Fatal(err)
		}
		sur, err := tuning.Run(p, cands, tuning.NewSurrogateAnnotator(p.Space(), res.Model), params, rng.New(49))
		if err != nil {
			b.Fatal(err)
		}
		d := direct.BestTrue[len(direct.BestTrue)-1]
		s := sur.BestTrue[len(sur.BestTrue)-1]
		b.ReportMetric(s/d, "surrogate_quality_ratio")
	}
}

// BenchmarkFig9SelectionScatter regenerates Fig. 9: the (μ, σ) scatter
// of PBUS vs PWU selections on atax, reporting the fraction of PWU's
// picks that land above the pool's median uncertainty (PBUS's is near
// zero — that is the figure's point).
func BenchmarkFig9SelectionScatter(b *testing.B) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	sc := figScale()
	for i := 0; i < b.N; i++ {
		s, err := experiment.SelectionScatter(context.Background(), p, "PWU", sc, 50)
		if err != nil {
			b.Fatal(err)
		}
		med := median(s.PoolSigma)
		hi := 0
		for _, v := range s.SelSigma {
			if v > med {
				hi++
			}
		}
		b.ReportMetric(float64(hi)/float64(len(s.SelSigma)), "pwu_high_sigma_frac")
		if _, err := experiment.SelectionScatter(context.Background(), p, "PBUS", sc, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// ablationRun runs one PWU experiment and returns the final RMSE@α.
func ablationRun(b *testing.B, sc experiment.Scale, strategyName string, seed uint64) float64 {
	b.Helper()
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	cs, err := experiment.RunStrategy(context.Background(), p, strategyName, sc, seed)
	if err != nil {
		b.Fatal(err)
	}
	return cs.RMSE[len(cs.RMSE)-1]
}

// BenchmarkAblationUncertainty compares the two forest uncertainty
// estimators (between-tree vs law-of-total-variance) under PWU.
func BenchmarkAblationUncertainty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figScale()
		sc.Forest.Uncertainty = forest.BetweenTrees
		between := ablationRun(b, sc, "PWU", 51)
		sc.Forest.Uncertainty = forest.TotalVariance
		total := ablationRun(b, sc, "PWU", 51)
		b.ReportMetric(total/between, "totalvar_rmse_frac")
	}
}

// BenchmarkAblationForestSize sweeps the ensemble size B.
func BenchmarkAblationForestSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, trees := range []int{8, 32, 128} {
			sc := figScale()
			sc.Forest.NumTrees = trees
			ablationRun(b, sc, "PWU", 52)
		}
	}
}

// BenchmarkAblationBatchSize compares the paper's batch size 1 against
// larger batches at a fixed label budget.
func BenchmarkAblationBatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rmse1, rmse10 float64
		{
			sc := figScale()
			sc.NBatch, sc.EvalEvery = 1, 20
			rmse1 = ablationRun(b, sc, "PWU", 53)
		}
		{
			sc := figScale()
			sc.NBatch, sc.EvalEvery = 10, 20
			rmse10 = ablationRun(b, sc, "PWU", 53)
		}
		b.ReportMetric(rmse10/rmse1, "batch10_rmse_frac")
	}
}

// BenchmarkAblationScore compares the PWU score against its two limits:
// pure uncertainty (MaxU, α→1) and the coefficient of variation (CV,
// α→0).
func BenchmarkAblationScore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figScale()
		pwu := ablationRun(b, sc, "PWU", 54)
		maxu := ablationRun(b, sc, "MaxU", 54)
		cv := ablationRun(b, sc, "CV", 54)
		b.ReportMetric(pwu/maxu, "pwu_vs_maxu_rmse_frac")
		b.ReportMetric(pwu/cv, "pwu_vs_cv_rmse_frac")
	}
}

// BenchmarkAblationBagging disables bootstrap bagging (random subspace
// only) to isolate its contribution to the uncertainty signal. The
// no-bagging arm must keep a random subspace (mtry < d), otherwise all
// trees are identical and σ degenerates to zero.
func BenchmarkAblationBagging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figScale()
		sc.Forest.DisableBagging = true
		sc.Forest.Tree.MaxFeatures = 4
		noBag := ablationRun(b, sc, "PWU", 55)
		sc = figScale()
		bag := ablationRun(b, sc, "PWU", 55)
		b.ReportMetric(noBag/bag, "nobag_rmse_frac")
	}
}

// BenchmarkAblationGPSurrogate swaps the random forest for the
// Gaussian-process surrogate inside Algorithm 1 (the comparison behind
// the paper's §II-B model choice) and reports the RMSE@α ratio RF/GP
// (< 1 means the forest wins). The benchmark uses hypre because the
// paper's argument for forests is about categorical-heavy, outlier-rich
// spaces — on small all-numeric kernels a GP can be competitive.
func BenchmarkAblationGPSurrogate(b *testing.B) {
	p, err := bench.ByName("hypre")
	if err != nil {
		b.Fatal(err)
	}
	sc := figScale()
	gpFitter := func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (core.Model, error) {
		return gp.Fit(X, y, fs, gp.Config{}, r)
	}
	for i := 0; i < b.N; i++ {
		run := func(fitter core.Fitter) float64 {
			r := rng.New(60)
			ds := buildDataset(b, p, sc.PoolSize, sc.TestSize, r.Split())
			res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: sc.Alpha},
				core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax, Forest: sc.Forest, Fitter: fitter}, r.Split(), nil)
			if err != nil {
				b.Fatal(err)
			}
			pred, _ := res.Model.PredictBatch(ds.TestX())
			return metrics.RMSEAtAlpha(ds.TestY, pred, sc.Alpha)
		}
		rf := run(nil)
		gpRMSE := run(gpFitter)
		b.ReportMetric(rf/gpRMSE, "rf_vs_gp_rmse_frac")
	}
}

// BenchmarkAblationEIStrategy compares the SMAC-style Expected
// Improvement acquisition against PWU under the paper's modeling metric
// (EI optimises the minimum, not high-performance-subspace accuracy).
func BenchmarkAblationEIStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figScale()
		pwu := ablationRun(b, sc, "PWU", 61)
		ei := ablationRun(b, sc, "EI", 61)
		b.ReportMetric(pwu/ei, "pwu_vs_ei_rmse_frac")
	}
}

// BenchmarkAblationWarmUpdate compares full refits against the paper's
// "updated partially" warm path (forest.Update) at equal budgets,
// reporting both the quality ratio and the wall-time ratio.
func BenchmarkAblationWarmUpdate(b *testing.B) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	sc := figScale()
	for i := 0; i < b.N; i++ {
		run := func(warm bool) float64 {
			r := rng.New(62)
			ds := buildDataset(b, p, sc.PoolSize, sc.TestSize, r.Split())
			res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: sc.Alpha},
				core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax, Forest: sc.Forest, WarmUpdate: warm}, r.Split(), nil)
			if err != nil {
				b.Fatal(err)
			}
			pred, _ := res.Model.PredictBatch(ds.TestX())
			return metrics.RMSEAtAlpha(ds.TestY, pred, sc.Alpha)
		}
		cold := run(false)
		warm := run(true)
		b.ReportMetric(warm/cold, "warm_rmse_frac")
	}
}

// BenchmarkAblationLHSPool compares Latin-hypercube and uniform level
// sampling as label designs at a fixed small budget.
func BenchmarkAblationLHSPool(b *testing.B) {
	p, err := bench.ByName("adi")
	if err != nil {
		b.Fatal(err)
	}
	sp := p.Space()
	for i := 0; i < b.N; i++ {
		r := rng.New(63)
		ds := buildDataset(b, p, 200, 400, r.Split())
		ev := bench.Evaluator(p, r.Split())
		fit := func(configs []space.Config) float64 {
			X := sp.EncodeAll(configs)
			y := make([]float64, len(configs))
			for j, c := range configs {
				y[j] = mustEval(b, ev, c)
			}
			f, err := forest.Fit(X, y, sp.Features(), forest.Config{NumTrees: 32}, r.Split())
			if err != nil {
				b.Fatal(err)
			}
			pred, _ := f.PredictBatch(ds.TestX())
			return metrics.RMSEAtAlpha(ds.TestY, pred, 0.1)
		}
		const budget = 60
		uniform := fit(sp.SampleConfigs(r.Split(), budget))
		lhs := fit(sp.SampleLHS(r.Split(), budget))
		b.ReportMetric(lhs/uniform, "lhs_rmse_frac")
	}
}

// BenchmarkExtensionTransfer runs the model-portability experiment
// (future work of the paper's §VI): reuse an atax model built on
// Platform A to model Platform C, reporting the small-budget RMSE ratio
// transfer/cold (< 1 means transfer pays).
func BenchmarkExtensionTransfer(b *testing.B) {
	source, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	target, err := bench.KernelOn("atax", machine.PlatformC())
	if err != nil {
		b.Fatal(err)
	}
	cfg := transfer.Default()
	cfg.SourceBudget = 120
	cfg.PoolSize, cfg.TestSize = 600, 300
	cfg.TargetBudgets = []int{10, 40}
	cfg.Forest.NumTrees = 32
	for i := 0; i < b.N; i++ {
		res, err := transfer.Run(context.Background(), source, target, cfg, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TransferRMSE[0]/res.ColdRMSE[0], "transfer_rmse_frac_at10")
	}
}

// BenchmarkAblationCalibration measures how honest the forest's two σ
// estimators are on a benchmark's test set after a PWU run, reporting
// 1σ coverage (Gaussian ideal 0.683; higher is better up to the ideal).
func BenchmarkAblationCalibration(b *testing.B) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	sc := figScale()
	for i := 0; i < b.N; i++ {
		for _, u := range []forest.UncertaintyKind{forest.BetweenTrees, forest.TotalVariance} {
			r := rng.New(70)
			ds := buildDataset(b, p, sc.PoolSize, sc.TestSize, r.Split())
			fc := sc.Forest
			fc.Uncertainty = u
			res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: sc.Alpha},
				core.Params{NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax, Forest: fc}, r.Split(), nil)
			if err != nil {
				b.Fatal(err)
			}
			mu, sigma := res.Model.PredictBatch(ds.TestX())
			rep, err := calibration.Evaluate(ds.TestY, mu, sigma)
			if err != nil {
				b.Fatal(err)
			}
			name := "cover1_between"
			if u == forest.TotalVariance {
				name = "cover1_totalvar"
			}
			b.ReportMetric(rep.Coverage1, name)
		}
	}
}

// BenchmarkForestSerialize measures model save/load round trips — the
// mechanism behind shipping a tuned model to another machine.
func BenchmarkForestSerialize(b *testing.B) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(65)
	sp := p.Space()
	configs := sp.SampleConfigs(r, 300)
	X := sp.EncodeAll(configs)
	y := make([]float64, len(configs))
	for i, c := range configs {
		y[i] = p.TrueTime(c)
	}
	f, err := forest.Fit(X, y, sp.Features(), forest.Config{NumTrees: 64}, r.Split())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			b.Fatal(err)
		}
		f2, err := forest.Load(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if f2.NumTrees() != 64 {
			b.Fatal("round trip lost trees")
		}
	}
}

// ---- helpers ----

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

// ---- Inference engine (DESIGN.md §7) ----

// inferenceFixture trains a paper-scale surrogate (64 trees on 500
// labels of the atax space, §III-D) and samples a 7000-config scoring
// pool; it returns the forest, the space, the training set and the pool.
func inferenceFixture(b *testing.B) (*forest.Forest, *space.Space, [][]float64, []float64, []space.Config) {
	b.Helper()
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	sp := p.Space()
	r := rng.New(91)
	ev := bench.Evaluator(p, r.Split())
	train := sp.SampleConfigs(r.Split(), 500)
	X := sp.EncodeAll(train)
	y := make([]float64, len(train))
	for i, c := range train {
		y[i] = mustEval(b, ev, c)
	}
	f, err := forest.Fit(X, y, sp.Features(), forest.Config{NumTrees: 64}, r.Split())
	if err != nil {
		b.Fatal(err)
	}
	return f, sp, X, y, sp.SampleConfigs(r.Split(), 7000)
}

// inferenceSetup is inferenceFixture with the pool encoded as a matrix.
func inferenceSetup(b *testing.B) (*forest.Forest, [][]float64) {
	b.Helper()
	f, sp, _, _, cfgs := inferenceFixture(b)
	return f, sp.EncodeAll(cfgs)
}

// BenchmarkPredictBatchFlat7000 measures one full pool-scoring pass on
// the compiled flat-array engine — the per-iteration cost of Algorithm
// 1's step 3 at paper scale.
func BenchmarkPredictBatchFlat7000(b *testing.B) {
	f, pool := inferenceSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(pool)
	}
}

// BenchmarkPredictBatchPointer7000 is the pointer-walking baseline the
// flat engine is measured against.
func BenchmarkPredictBatchPointer7000(b *testing.B) {
	f, pool := inferenceSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchReference(pool)
	}
}

// BenchmarkScanCache7000 measures the per-iteration pool scoring of a
// warm-update run at paper scale: the 7000-config pool as a pool.Slice,
// scanned through the forest with a pool.ScanCache, exactly as Run scores
// it. "steady" rescans an unchanged forest, so every panel is reused and
// only re-aggregated; "after-update" applies one warm Update (refreshing
// 16 of the 64 trees, untimed) before each timed scan, which then
// re-walks just those trees. BenchmarkPredictBatchFlat7000 is the full
// rescore both are measured against (DESIGN.md §7).
func BenchmarkScanCache7000(b *testing.B) {
	f, sp, X, y, cfgs := inferenceFixture(b)
	src := pool.NewSlice(sp, cfgs)
	scan := func(cache *pool.ScanCache) {
		if err := pool.Scan(src, f, pool.ScanConfig{Cache: cache}, func(int, []float64, float64, float64) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("steady", func(b *testing.B) {
		cache := pool.NewScanCache(0)
		scan(cache) // the cold fill stays out of the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(cache)
		}
	})
	b.Run("after-update", func(b *testing.B) {
		cache := pool.NewScanCache(0)
		scan(cache)
		r := rng.New(92)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := f.Update(X, y, r.Split()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			scan(cache)
		}
	})
}
