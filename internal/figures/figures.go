// Package figures renders the paper's tables and figures from the
// experiment harness, one method per artifact. Each method writes an
// ASCII rendering (.txt) plus the raw series (.csv) into the output
// directory. Learning-curve runs are cached inside the Generator so
// figures sharing data (Fig. 2/3, Fig. 4/5) run the experiments once.
package figures

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spapt"
	"repro/internal/textplot"
)

// Generator renders the paper's artifacts.
type Generator struct {
	Scale  experiment.Scale
	Seed   uint64
	OutDir string
	Stdout io.Writer

	// Ctx cancels the underlying experiment runs; nil means Background.
	Ctx context.Context

	Kernels []bench.Problem
	Apps    []bench.Problem

	// AppScale, when non-nil, overrides Scale for the application
	// benchmarks (they need the paper's batch size 1; see
	// experiment.QuickApp).
	AppScale *experiment.Scale

	// Workers bounds the campaign engine's worker pool; <= 0 means
	// GOMAXPROCS.
	Workers int

	// Fleet, when non-nil, drains campaigns through this submitter's
	// registered remote workers (experiment.RunCampaignFleet) instead
	// of the in-process scheduler — typically from fleet.Dial (figures
	// -fleet): an in-process coordinator, or a fleet.Client against a
	// resident fleetd. Curves are
	// bit-identical either way; only the telemetry changes meaning
	// (steals become lease re-queues, the dataset cache lives per
	// worker).
	Fleet fleet.Submitter

	// curve cache: benchmark name -> per-strategy curves.
	curves map[string][]*experiment.CurveSet

	// sched and dstats accumulate the campaign drains' telemetry, for
	// the Telemetry artifact.
	sched  campaign.Stats
	dstats campaign.CacheStats
}

// ctx returns the generator's context.
func (g *Generator) ctx() context.Context {
	if g.Ctx != nil {
		return g.Ctx
	}
	return context.Background()
}

// scaleFor picks the experiment scale for a problem.
func (g *Generator) scaleFor(p bench.Problem) experiment.Scale {
	if g.AppScale != nil {
		for _, a := range g.Apps {
			if a.Name() == p.Name() {
				return *g.AppScale
			}
		}
	}
	return g.Scale
}

// strategies is the figure ordering of the compared methods.
var strategies = []string{"PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Random"}

// ensureCurves runs one campaign covering every given problem that has
// no cached curves yet. Batching the problems into a single drain keeps
// the worker pool saturated across problem boundaries (the last
// repetitions of one kernel overlap the first of the next) instead of
// paying a sync barrier per problem.
func (g *Generator) ensureCurves(problems []bench.Problem) error {
	if g.curves == nil {
		g.curves = map[string][]*experiment.CurveSet{}
	}
	var items []experiment.CampaignItem
	tasks := 0
	for _, p := range problems {
		if _, ok := g.curves[p.Name()]; ok {
			continue
		}
		items = append(items, experiment.CampaignItem{Problem: p, Scale: g.scaleFor(p)})
		tasks += g.scaleFor(p).Reps * len(strategies)
	}
	if len(items) == 0 {
		return nil
	}
	fmt.Fprintf(g.Stdout, "    campaign: %d problems x %d strategies (%d tasks)...\n",
		len(items), len(strategies), tasks)
	camp := experiment.Campaign{
		Items: items, Strategies: strategies, Seed: g.Seed, Workers: g.Workers,
	}
	var (
		res *experiment.CampaignResult
		err error
	)
	if g.Fleet != nil {
		res, err = experiment.RunCampaignFleet(g.ctx(), camp, g.Fleet)
	} else {
		res, err = experiment.RunCampaign(g.ctx(), camp)
	}
	if res != nil {
		g.sched.Add(res.Scheduler)
		g.dstats.Add(res.Datasets)
	}
	if err != nil {
		return err
	}
	for _, it := range items {
		g.curves[it.Problem.Name()] = res.Curves[it.Problem.Name()]
	}
	fmt.Fprintf(g.Stdout, "    campaign: %d workers %.0f%% busy, %d steals, datasets %d built / %d served from cache\n",
		res.Scheduler.Workers, 100*res.Scheduler.Utilization, res.Scheduler.Steals,
		res.Datasets.Builds, res.Datasets.Hits)
	return nil
}

// curvesFor runs (or returns cached) all-strategy curves for p.
func (g *Generator) curvesFor(p bench.Problem) ([]*experiment.CurveSet, error) {
	if err := g.ensureCurves([]bench.Problem{p}); err != nil {
		return nil, err
	}
	return g.curves[p.Name()], nil
}

// writeFile writes content into OutDir/name.
func (g *Generator) writeFile(name, content string) error {
	return os.WriteFile(filepath.Join(g.OutDir, name), []byte(content), 0o644)
}

// writeCSV writes series CSV into OutDir/name.
func (g *Generator) writeCSV(name string, series []textplot.Series) error {
	f, err := os.Create(filepath.Join(g.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return textplot.WriteCSV(f, series)
}

// Table1 renders the ADI kernel's compilation-parameter table.
func (g *Generator) Table1() error {
	var b strings.Builder
	b.WriteString("Table I: Compilation parameters of ADI kernel\n")
	b.WriteString(fmt.Sprintf("%-15s %-7s %s\n", "Type", "Number", "Values"))
	for _, row := range spapt.ADI().Table() {
		b.WriteString(fmt.Sprintf("%-15s %-7d %s\n", row.Type, row.Number, row.Values))
	}
	fmt.Fprint(g.Stdout, b.String())
	return g.writeFile("table1_adi.txt", b.String())
}

// spaceTable renders a Table II/III-style listing of a space.
func spaceTable(title string, p bench.Problem) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString(fmt.Sprintf("%-12s %s\n", "Name", "Values"))
	sp := p.Space()
	for i := 0; i < sp.NumParams(); i++ {
		par := sp.Param(i)
		var vals []string
		for l := 0; l < par.NumLevels(); l++ {
			vals = append(vals, par.LevelString(l))
		}
		v := strings.Join(vals, ", ")
		if len(vals) > 12 {
			v = strings.Join(vals[:6], ", ") + ", ..., " + vals[len(vals)-1]
		}
		b.WriteString(fmt.Sprintf("%-12s %s\n", par.Name, v))
	}
	return b.String()
}

// Table2 renders the kripke parameter table.
func (g *Generator) Table2() error {
	s := spaceTable("Table II: Parameters of kripke", kripkeProblem(g))
	fmt.Fprint(g.Stdout, s)
	return g.writeFile("table2_kripke.txt", s)
}

// Table3 renders the hypre parameter table.
func (g *Generator) Table3() error {
	s := spaceTable("Table III: Parameters of hypre", hypreProblem(g))
	fmt.Fprint(g.Stdout, s)
	return g.writeFile("table3_hypre.txt", s)
}

func kripkeProblem(g *Generator) bench.Problem {
	for _, p := range g.Apps {
		if p.Name() == "kripke" {
			return p
		}
	}
	panic("figures: kripke missing from Apps")
}

func hypreProblem(g *Generator) bench.Problem {
	for _, p := range g.Apps {
		if p.Name() == "hypre" {
			return p
		}
	}
	panic("figures: hypre missing from Apps")
}

// Table4 renders the platform table.
func (g *Generator) Table4() error {
	a, bp := machine.PlatformA(), machine.PlatformB()
	var b strings.Builder
	b.WriteString("Table IV: Node configuration of two platforms\n")
	row := func(name, va, vb string) {
		b.WriteString(fmt.Sprintf("%-15s %-12s %s\n", name, va, vb))
	}
	row("Specification", "Platform A", "Platform B")
	row("CPU type", a.CPU, bp.CPU)
	row("CPU frequency", fmt.Sprintf("%.1fGHz", a.FreqHz/1e9), fmt.Sprintf("%.1fGHz", bp.FreqHz/1e9))
	row("#core", fmt.Sprint(a.Cores), fmt.Sprint(bp.Cores))
	row("memory", fmt.Sprintf("%.0fGB", a.MemoryBytes/1e9), fmt.Sprintf("%.0fGB", bp.MemoryBytes/1e9))
	net := "-"
	if bp.Net.BetaBytesPerSec > 0 {
		net = fmt.Sprintf("%.0fGbps OPA", bp.Net.BetaBytesPerSec*8/1e9)
	}
	row("network", "-", net)
	fmt.Fprint(g.Stdout, b.String())
	return g.writeFile("table4_platforms.txt", b.String())
}

// rmseSeries converts curve sets to RMSE-vs-samples plot series.
func rmseSeries(cs []*experiment.CurveSet) []textplot.Series {
	out := make([]textplot.Series, len(cs))
	for i, c := range cs {
		xs := make([]float64, len(c.Samples))
		for j, s := range c.Samples {
			xs[j] = float64(s)
		}
		out[i] = textplot.Series{Name: c.Strategy, X: xs, Y: c.RMSE}
	}
	return out
}

// ccSeries converts curve sets to CC-vs-samples plot series.
func ccSeries(cs []*experiment.CurveSet) []textplot.Series {
	out := make([]textplot.Series, len(cs))
	for i, c := range cs {
		xs := make([]float64, len(c.Samples))
		for j, s := range c.Samples {
			xs[j] = float64(s)
		}
		out[i] = textplot.Series{Name: c.Strategy, X: xs, Y: c.CC}
	}
	return out
}

// rmseVsCostSeries converts curve sets to RMSE-vs-CC plot series (Fig 5).
func rmseVsCostSeries(cs []*experiment.CurveSet) []textplot.Series {
	out := make([]textplot.Series, len(cs))
	for i, c := range cs {
		out[i] = textplot.Series{Name: c.Strategy, X: c.CC, Y: c.RMSE}
	}
	return out
}

// Fig2 renders RMSE-vs-samples for the 12 kernels (α = 0.01 in the
// paper; we use the generator's Scale.Alpha, 0.05 by default, and note
// it in the title).
func (g *Generator) Fig2() error {
	if err := g.ensureCurves(g.Kernels); err != nil {
		return err
	}
	for _, p := range g.Kernels {
		cs, err := g.curvesFor(p)
		if err != nil {
			return err
		}
		series := rmseSeries(cs)
		title := fmt.Sprintf("Fig 2 (%s): RMSE@alpha=%.2f vs #samples", p.Name(), g.Scale.Alpha)
		plot := textplot.LinePlot(title, series, 72, 18, true)
		if err := g.writeFile(fmt.Sprintf("fig2_%s.txt", p.Name()), plot); err != nil {
			return err
		}
		if err := g.writeCSV(fmt.Sprintf("fig2_%s.csv", p.Name()), series); err != nil {
			return err
		}
	}
	fmt.Fprintln(g.Stdout, "  fig2: 12 kernel RMSE curves written")
	return nil
}

// Fig3 renders CC-vs-samples for the 12 kernels.
func (g *Generator) Fig3() error {
	if err := g.ensureCurves(g.Kernels); err != nil {
		return err
	}
	for _, p := range g.Kernels {
		cs, err := g.curvesFor(p)
		if err != nil {
			return err
		}
		series := ccSeries(cs)
		title := fmt.Sprintf("Fig 3 (%s): cumulative cost vs #samples", p.Name())
		plot := textplot.LinePlot(title, series, 72, 18, true)
		if err := g.writeFile(fmt.Sprintf("fig3_%s.txt", p.Name()), plot); err != nil {
			return err
		}
		if err := g.writeCSV(fmt.Sprintf("fig3_%s.csv", p.Name()), series); err != nil {
			return err
		}
	}
	fmt.Fprintln(g.Stdout, "  fig3: 12 kernel CC curves written")
	return nil
}

// Fig4 renders RMSE and CC vs samples for the two applications.
func (g *Generator) Fig4() error {
	if err := g.ensureCurves(g.Apps); err != nil {
		return err
	}
	for _, p := range g.Apps {
		cs, err := g.curvesFor(p)
		if err != nil {
			return err
		}
		rs := rmseSeries(cs)
		ccs := ccSeries(cs)
		plot := textplot.LinePlot(fmt.Sprintf("Fig 4a (%s): RMSE@alpha=%.2f vs #samples", p.Name(), g.Scale.Alpha), rs, 72, 18, true) +
			"\n" +
			textplot.LinePlot(fmt.Sprintf("Fig 4b (%s): cumulative cost vs #samples", p.Name()), ccs, 72, 18, true)
		if err := g.writeFile(fmt.Sprintf("fig4_%s.txt", p.Name()), plot); err != nil {
			return err
		}
		if err := g.writeCSV(fmt.Sprintf("fig4_%s_rmse.csv", p.Name()), rs); err != nil {
			return err
		}
		if err := g.writeCSV(fmt.Sprintf("fig4_%s_cc.csv", p.Name()), ccs); err != nil {
			return err
		}
	}
	fmt.Fprintln(g.Stdout, "  fig4: application RMSE/CC curves written")
	return nil
}

// Fig5 renders RMSE vs cumulative cost for the two applications.
func (g *Generator) Fig5() error {
	if err := g.ensureCurves(g.Apps); err != nil {
		return err
	}
	for _, p := range g.Apps {
		cs, err := g.curvesFor(p)
		if err != nil {
			return err
		}
		series := rmseVsCostSeries(cs)
		title := fmt.Sprintf("Fig 5 (%s): RMSE@alpha=%.2f vs cumulative cost (s)", p.Name(), g.Scale.Alpha)
		plot := textplot.LinePlot(title, series, 72, 18, true)
		if err := g.writeFile(fmt.Sprintf("fig5_%s.txt", p.Name()), plot); err != nil {
			return err
		}
		if err := g.writeCSV(fmt.Sprintf("fig5_%s.csv", p.Name()), series); err != nil {
			return err
		}
	}
	fmt.Fprintln(g.Stdout, "  fig5: RMSE-vs-cost curves written")
	return nil
}

// Fig6 compares PBUS and PWU on atax at α in {0.01, 0.05, 0.10}.
func (g *Generator) Fig6() error {
	p, err := bench.ByName("atax")
	if err != nil {
		return err
	}
	var all []textplot.Series
	for _, alpha := range []float64{0.01, 0.05, 0.10} {
		sc := g.Scale
		sc.Alpha = alpha
		for _, strat := range []string{"PWU", "PBUS"} {
			cs, err := experiment.RunStrategy(g.ctx(), p, strat, sc, g.Seed)
			if err != nil {
				return err
			}
			xs := make([]float64, len(cs.Samples))
			for j, s := range cs.Samples {
				xs[j] = float64(s)
			}
			all = append(all, textplot.Series{
				Name: fmt.Sprintf("%s@%.2f", strat, alpha), X: xs, Y: cs.RMSE,
			})
		}
	}
	plot := textplot.LinePlot("Fig 6 (atax): RMSE vs #samples at different alpha", all, 72, 20, true)
	if err := g.writeFile("fig6_atax_alpha.txt", plot); err != nil {
		return err
	}
	if err := g.writeCSV("fig6_atax_alpha.csv", all); err != nil {
		return err
	}
	fmt.Fprintln(g.Stdout, "  fig6: alpha sweep written")
	return nil
}

// Fig7 renders the PWU-vs-PBUS cumulative-cost speedup bars for all
// benchmarks, reusing the cached curves.
func (g *Generator) Fig7() error {
	all := append(append([]bench.Problem{}, g.Kernels...), g.Apps...)
	if err := g.ensureCurves(all); err != nil {
		return err
	}
	var names []string
	var speedups []float64
	var lines []string
	for _, p := range all {
		cs, err := g.curvesFor(p)
		if err != nil {
			return err
		}
		byName := map[string]*experiment.CurveSet{}
		for _, c := range cs {
			byName[c.Strategy] = c
		}
		pwu, pbus := byName["PWU"], byName["PBUS"]
		row := experiment.SpeedupRow{Benchmark: p.Name()}
		if pwu != nil && pbus != nil {
			sp, target, ok := speedupOf(pwu, pbus)
			row.Speedup, row.Target, row.OK = sp, target, ok
		}
		if row.OK {
			names = append(names, row.Benchmark)
			speedups = append(speedups, row.Speedup)
			lines = append(lines, fmt.Sprintf("%s,%.3f,%.6g", row.Benchmark, row.Speedup, row.Target))
		} else {
			lines = append(lines, fmt.Sprintf("%s,unreached,", row.Benchmark))
		}
	}
	chart := textplot.BarChart("Fig 7: CC speedup of PWU over PBUS (cost ratio to reach shared RMSE target)", names, speedups, 50)
	fmt.Fprint(g.Stdout, chart)
	if err := g.writeFile("fig7_speedup.txt", chart); err != nil {
		return err
	}
	return g.writeFile("fig7_speedup.csv", "benchmark,speedup,target\n"+strings.Join(lines, "\n")+"\n")
}

func speedupOf(pwu, pbus *experiment.CurveSet) (speedup, target float64, ok bool) {
	return speedupFromCurves(pwu, pbus)
}

// Fig8 renders the atax tuning comparison: ground-truth vs surrogate
// annotator. Both tune the same candidates from the same generator; the
// surrogate annotator labels with the PWU-built model's prediction
// instead of a measurement.
func (g *Generator) Fig8() error {
	p, err := bench.ByName("atax")
	if err != nil {
		return err
	}
	r := rng.New(rng.Mix(g.Seed, 0x516))
	// Build the surrogate with a PWU active-learning run at the
	// generator's scale.
	sur, err := surrogateModel(g.ctx(), p, g.Scale, r.Split())
	if err != nil {
		return err
	}
	sp := p.Space()
	cands := sp.SampleConfigs(r.Split(), g.Scale.TestSize)
	annotators := []struct {
		name string
		ev   core.Evaluator
	}{
		{"ground truth", bench.Evaluator(p, r.Split())},
		{"surrogate model", surrogateEvaluator(sp, sur)},
	}
	var series []textplot.Series
	for _, a := range annotators {
		best, err := tuneTrace(g.ctx(), p, cands, a.ev, 10, 80, g.Scale.Forest, rng.New(rng.Mix(g.Seed, 1)))
		if err != nil {
			return err
		}
		xs := make([]float64, len(best))
		for i := range xs {
			xs[i] = float64(i)
		}
		series = append(series, textplot.Series{Name: a.name, X: xs, Y: best})
	}
	plot := textplot.LinePlot("Fig 8 (atax): best true time found vs tuning iteration", series, 72, 18, false)
	fmt.Fprint(g.Stdout, plot)
	if err := g.writeFile("fig8_tuning.txt", plot); err != nil {
		return err
	}
	return g.writeCSV("fig8_tuning.csv", series)
}

// Fig9 renders the PBUS-vs-PWU selection scatter on atax.
func (g *Generator) Fig9() error {
	p, err := bench.ByName("atax")
	if err != nil {
		return err
	}
	var out strings.Builder
	var csv []textplot.Series
	for _, strat := range []string{"PBUS", "PWU"} {
		s, err := experiment.SelectionScatter(g.ctx(), p, strat, g.Scale, rng.Mix(g.Seed, 0x519))
		if err != nil {
			return err
		}
		series := []textplot.Series{
			{Name: "pool", X: s.PoolMu, Y: s.PoolSigma},
			{Name: "selected", X: s.SelMu, Y: s.SelSigma},
		}
		out.WriteString(textplot.ScatterPlot(
			fmt.Sprintf("Fig 9 (%s on atax): predicted time (x) vs uncertainty (y)", strat),
			series, 72, 20))
		out.WriteString("\n")
		csv = append(csv,
			textplot.Series{Name: strat + "_pool", X: s.PoolMu, Y: s.PoolSigma},
			textplot.Series{Name: strat + "_selected", X: s.SelMu, Y: s.SelSigma})
	}
	fmt.Fprint(g.Stdout, out.String())
	if err := g.writeFile("fig9_scatter.txt", out.String()); err != nil {
		return err
	}
	return g.writeCSV("fig9_scatter.csv", csv)
}

// Telemetry writes the run engine's aggregated per-strategy telemetry
// for every benchmark whose learning curves this generator produced (or
// runs them now): wall time spent fitting, selecting and evaluating,
// plus retry/skip counters and pool-cache usage. The artifact lets
// cmd/report surface where the labeling budget's wall-clock actually
// went.
func (g *Generator) Telemetry() error {
	if err := g.ensureCurves(append(append([]bench.Problem{}, g.Kernels...), g.Apps...)); err != nil {
		return err
	}
	names := make([]string, 0, len(g.curves))
	for name := range g.curves {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips," +
		"timeouts,guard_flagged,guard_remeasured,guard_quarantined,guard_cost\n")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)) }
	for _, name := range names {
		for _, cs := range g.curves[name] {
			st := cs.Stats
			b.WriteString(fmt.Sprintf("%s,%s,%d,%d,%s,%s,%s,%d,%d,%d,%d,%d,%d,%.4f\n",
				name, cs.Strategy, cs.Reps, st.Events,
				ms(st.FitTime), ms(st.SelectTime), ms(st.EvalTime),
				st.EvalRetries, st.EvalSkips,
				st.EvalTimeouts, st.GuardFlagged, st.GuardRemeasured, st.GuardQuarantined, st.GuardCost))
		}
	}
	if err := g.writeFile("telemetry.csv", b.String()); err != nil {
		return err
	}

	// The campaign drains' scheduler and dataset-cache summary, for
	// cmd/report: how parallel the figure runs actually were and how
	// much labeling the single-flight cache avoided.
	var cb strings.Builder
	cb.WriteString("workers,tasks,steals,busy_ms,wall_ms,utilization,dataset_builds,dataset_hits,labels_saved,steal_rate\n")
	cb.WriteString(fmt.Sprintf("%d,%d,%d,%s,%s,%.4f,%d,%d,%d,%.4f\n",
		g.sched.Workers, g.sched.Tasks, g.sched.Steals,
		ms(g.sched.Busy), ms(g.sched.Wall), g.sched.Utilization,
		g.dstats.Builds, g.dstats.Hits, g.dstats.LabelsSaved, g.sched.StealRate()))
	if err := g.writeFile("campaign.csv", cb.String()); err != nil {
		return err
	}
	fmt.Fprintln(g.Stdout, "  telemetry: engine timing/retry and campaign tables written")
	return nil
}
