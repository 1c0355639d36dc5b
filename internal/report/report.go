// Package report turns the CSV artifacts written by cmd/figures into a
// compact Markdown results summary — the generated half of
// EXPERIMENTS.md. It reads only the long-form "series,x,y" CSVs, so it
// works on any output directory regardless of the scale that produced
// it.
package report

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Series is one named (x, y) sequence parsed from a figure CSV.
type Series struct {
	Name string
	X, Y []float64
}

// ReadCSV parses a long-form "series,x,y" CSV into named series, in
// first-appearance order.
func ReadCSV(r io.Reader) ([]Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("report: empty CSV")
	}
	if got := sc.Text(); got != "series,x,y" {
		return nil, fmt.Errorf("report: unexpected header %q", got)
	}
	index := map[string]int{}
	var out []Series
	line := 1
	for sc.Scan() {
		line++
		parts := strings.Split(sc.Text(), ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("report: line %d has %d fields", line, len(parts))
		}
		x, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("report: line %d x: %v", line, err)
		}
		y, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("report: line %d y: %v", line, err)
		}
		i, ok := index[parts[0]]
		if !ok {
			i = len(out)
			index[parts[0]] = i
			out = append(out, Series{Name: parts[0]})
		}
		out[i].X = append(out[i].X, x)
		out[i].Y = append(out[i].Y, y)
	}
	return out, sc.Err()
}

// Final returns the y value at the largest x of the series.
func (s Series) Final() float64 {
	best := math.Inf(-1)
	val := math.NaN()
	for i := range s.X {
		if s.X[i] >= best {
			best = s.X[i]
			val = s.Y[i]
		}
	}
	return val
}

// Generate walks dir for the cmd/figures artifacts and writes a Markdown
// summary: per-kernel final RMSE per strategy (fig2), application RMSE
// (fig4), the Fig. 7 speedup table, and the Fig. 8 tuning endpoint.
func Generate(dir string, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "## Measured results (artifacts in %s)\n\n", dir)

	// --- Fig. 2: kernel learning-curve endpoints.
	fig2, err := filepath.Glob(filepath.Join(dir, "fig2_*.csv"))
	if err != nil {
		return err
	}
	sort.Strings(fig2)
	if len(fig2) > 0 {
		fmt.Fprintln(bw, "### Kernels — final RMSE@α by strategy (Fig. 2)")
		fmt.Fprintln(bw)
		var strategies []string
		rows := map[string]map[string]float64{}
		var kernels []string
		for _, path := range fig2 {
			kernel := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "fig2_"), ".csv")
			series, err := readFile(path)
			if err != nil {
				return err
			}
			rows[kernel] = map[string]float64{}
			for _, s := range series {
				rows[kernel][s.Name] = s.Final()
				if !contains(strategies, s.Name) {
					strategies = append(strategies, s.Name)
				}
			}
			kernels = append(kernels, kernel)
		}
		fmt.Fprintf(bw, "| kernel | %s | PWU wins |\n", strings.Join(strategies, " | "))
		fmt.Fprintf(bw, "|---|%s---|\n", strings.Repeat("---|", len(strategies)))
		pwuWins := 0
		for _, kernel := range kernels {
			var cells []string
			best := math.Inf(1)
			bestName := ""
			for _, st := range strategies {
				v := rows[kernel][st]
				cells = append(cells, fmt.Sprintf("%.4g", v))
				if v < best {
					best = v
					bestName = st
				}
			}
			win := ""
			if bestName == "PWU" {
				win = "yes"
				pwuWins++
			}
			fmt.Fprintf(bw, "| %s | %s | %s |\n", kernel, strings.Join(cells, " | "), win)
		}
		fmt.Fprintf(bw, "\nPWU has the lowest final RMSE on %d of %d kernels.\n\n", pwuWins, len(kernels))
	}

	// --- Fig. 4: application endpoints.
	fig4, _ := filepath.Glob(filepath.Join(dir, "fig4_*_rmse.csv"))
	sort.Strings(fig4)
	if len(fig4) > 0 {
		fmt.Fprintln(bw, "### Applications — final RMSE@α by strategy (Fig. 4)")
		fmt.Fprintln(bw)
		for _, path := range fig4 {
			app := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "fig4_"), "_rmse.csv")
			series, err := readFile(path)
			if err != nil {
				return err
			}
			var cells []string
			for _, s := range series {
				cells = append(cells, fmt.Sprintf("%s %.4g", s.Name, s.Final()))
			}
			fmt.Fprintf(bw, "- **%s**: %s\n", app, strings.Join(cells, ", "))
		}
		fmt.Fprintln(bw)
	}

	// --- Fig. 7: speedups.
	if f, err := os.Open(filepath.Join(dir, "fig7_speedup.csv")); err == nil {
		defer f.Close()
		fmt.Fprintln(bw, "### Cost speedup of PWU over PBUS (Fig. 7)")
		fmt.Fprintln(bw)
		fmt.Fprintln(bw, "| benchmark | speedup | shared RMSE target |")
		fmt.Fprintln(bw, "|---|---|---|")
		sc := bufio.NewScanner(f)
		sc.Scan() // header
		var speedups []float64
		for sc.Scan() {
			parts := strings.Split(sc.Text(), ",")
			if len(parts) != 3 {
				continue
			}
			fmt.Fprintf(bw, "| %s | %s | %s |\n", parts[0], parts[1], parts[2])
			if v, err := strconv.ParseFloat(parts[1], 64); err == nil {
				speedups = append(speedups, v)
			}
		}
		if len(speedups) > 0 {
			fmt.Fprintf(bw, "\nGeometric-mean speedup %.2fx, max %.1fx over %d benchmarks with a reachable shared target.\n\n",
				geomean(speedups), maxOf(speedups), len(speedups))
		}
	}

	// --- Fig. 8: tuning endpoints.
	if series, err := readFile(filepath.Join(dir, "fig8_tuning.csv")); err == nil {
		fmt.Fprintln(bw, "### Surrogate vs direct tuning (Fig. 8)")
		fmt.Fprintln(bw)
		for _, s := range series {
			fmt.Fprintf(bw, "- %s: best true time found %.5g s\n", s.Name, s.Final())
		}
		fmt.Fprintln(bw)
	}

	// --- Run-engine telemetry.
	if err := telemetrySection(filepath.Join(dir, "telemetry.csv"), bw); err != nil {
		return err
	}

	// --- Campaign-engine telemetry.
	if err := campaignSection(filepath.Join(dir, "campaign.csv"), bw); err != nil {
		return err
	}

	return bw.Flush()
}

// campaignSection summarizes the campaign engine's drain statistics
// (written by cmd/figures): pool size, utilization, steals, and how much
// labeling the single-flight dataset cache avoided. A missing file is
// fine — older artifact directories predate the campaign engine.
func campaignSection(path string, bw *bufio.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()

	// Two header generations: the original nine columns, and the
	// extension with the derived steal rate. Older artifact directories
	// stay readable.
	const campHeaderV1 = "workers,tasks,steals,busy_ms,wall_ms,utilization,dataset_builds,dataset_hits,labels_saved"
	const campHeaderV2 = campHeaderV1 + ",steal_rate"
	sc := bufio.NewScanner(f)
	if !sc.Scan() || (sc.Text() != campHeaderV1 && sc.Text() != campHeaderV2) {
		return fmt.Errorf("report: unexpected campaign header in %s", path)
	}
	if !sc.Scan() {
		return sc.Err()
	}
	parts := strings.Split(sc.Text(), ",")
	if len(parts) < 9 {
		return nil
	}
	// A degenerate campaign (zero tasks, zero wall clock) must render as
	// 0%, never NaN/Inf, even in artifacts written before the guarded
	// derivations.
	util, _ := strconv.ParseFloat(parts[5], 64)
	if math.IsNaN(util) || math.IsInf(util, 0) {
		util = 0
	}
	steals := parts[2]
	if len(parts) >= 10 {
		if rate, err := strconv.ParseFloat(parts[9], 64); err == nil && !math.IsNaN(rate) && !math.IsInf(rate, 0) {
			steals = fmt.Sprintf("%s (%.2f per task)", steals, rate)
		}
	}
	fmt.Fprintln(bw, "### Campaign engine")
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "- workers: %s, tasks: %s, steals: %s\n", parts[0], parts[1], steals)
	fmt.Fprintf(bw, "- worker utilization: %.0f%% (busy %s ms of wall %s ms per worker)\n", 100*util, parts[3], parts[4])
	fmt.Fprintf(bw, "- dataset cache: %s built, %s served from cache (%s pool/test labels not re-measured)\n",
		parts[6], parts[7], parts[8])
	fmt.Fprintln(bw)
	return nil
}

// telemetrySection summarizes the run engine's telemetry artifact
// (written by cmd/figures): where the wall-clock went per strategy, and
// whether any evaluations had to be retried or skipped. A missing file
// is fine — older artifact directories simply predate the telemetry
// stream.
func telemetrySection(path string, bw *bufio.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()

	// Three header generations: the original ten columns, the chaos
	// harness's extension with timeout and label-guard counters, and the
	// current form without the retired cached_iterations column. Older
	// artifact directories stay readable.
	const headerV1 = "benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips,cached_iterations"
	const guardCols = ",timeouts,guard_flagged,guard_remeasured,guard_quarantined,guard_cost"
	const headerV3 = "benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips" + guardCols

	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return fmt.Errorf("report: empty telemetry file %s", path)
	}
	header := sc.Text()
	if header != headerV1 && header != headerV1+guardCols && header != headerV3 {
		return fmt.Errorf("report: unexpected telemetry header in %s", path)
	}
	col := map[string]int{}
	for i, name := range strings.Split(header, ",") {
		col[name] = i
	}
	_, guarded := col["timeouts"]
	type agg struct {
		fit, sel, eval      float64
		retries, skips      int
		events              int
		timeouts            int
		flagged, remeasured int
		quarantined         int
		guardCost           float64
	}
	byStrategy := map[string]*agg{}
	var order []string
	for sc.Scan() {
		parts := strings.Split(sc.Text(), ",")
		if len(parts) != len(col) {
			continue
		}
		a, ok := byStrategy[parts[1]]
		if !ok {
			a = &agg{}
			byStrategy[parts[1]] = a
			order = append(order, parts[1])
		}
		atoi := func(name string) int { v, _ := strconv.Atoi(parts[col[name]]); return v }
		atof := func(name string) float64 { v, _ := strconv.ParseFloat(parts[col[name]], 64); return v }
		a.events += atoi("events")
		a.fit += atof("fit_ms")
		a.sel += atof("select_ms")
		a.eval += atof("eval_ms")
		a.retries += atoi("retries")
		a.skips += atoi("skips")
		if guarded {
			a.timeouts += atoi("timeouts")
			a.flagged += atoi("guard_flagged")
			a.remeasured += atoi("guard_remeasured")
			a.quarantined += atoi("guard_quarantined")
			a.guardCost += atof("guard_cost")
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(order) == 0 {
		return nil
	}

	fmt.Fprintln(bw, "### Run-engine telemetry")
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "| strategy | iterations | fit s | select s | eval s | retries | skips |")
	fmt.Fprintln(bw, "|---|---|---|---|---|---|---|")
	for _, name := range order {
		a := byStrategy[name]
		fmt.Fprintf(bw, "| %s | %d | %.2f | %.2f | %.2f | %d | %d |\n",
			name, a.events, a.fit/1000, a.sel/1000, a.eval/1000, a.retries, a.skips)
	}
	fmt.Fprintln(bw)

	// Hardened-evaluation activity, shown only when the artifact carries
	// it and something actually fired.
	if guarded {
		any := false
		for _, name := range order {
			a := byStrategy[name]
			if a.timeouts+a.flagged+a.remeasured+a.quarantined > 0 || a.guardCost > 0 {
				any = true
				break
			}
		}
		if any {
			fmt.Fprintln(bw, "### Hardened evaluation")
			fmt.Fprintln(bw)
			fmt.Fprintln(bw, "| strategy | timeouts | flagged | re-measured | quarantined | guard cost |")
			fmt.Fprintln(bw, "|---|---|---|---|---|---|")
			for _, name := range order {
				a := byStrategy[name]
				fmt.Fprintf(bw, "| %s | %d | %d | %d | %d | %.3f |\n",
					name, a.timeouts, a.flagged, a.remeasured, a.quarantined, a.guardCost)
			}
			fmt.Fprintln(bw)
		}
	}
	return nil
}

func readFile(path string) ([]Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func geomean(xs []float64) float64 {
	acc := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			acc += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(acc / float64(n))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
