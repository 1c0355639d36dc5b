// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the public APIs of the tuning service, the
// campaign harness and the evaluation fleet, checks the outputs, and
// prints every metric with its unit; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload serve-scan --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// any wrapper. With --trace 1 the window is split: an untraced pass,
// then a traced pass whose spans give the per-layer metrics; outputs of
// the two passes must be identical and the difference in labels_per_s
// is reported as the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/rng"
)

// setupRepeats is how many times a run builds its system before the
// timed window; setup_s is the median. All but the last are torn down.
const setupRepeats = 5

// opts are the command-line inputs of one run.
type opts struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	dir      string // scratch directory inside the checkout
}

// unitSeed derives the seed of unit k (a session, a campaign drain, a
// tuning run) under a purpose tag, so both passes of a traced run and
// every run with the same --seed generate identical inputs.
func (o *opts) unitSeed(tag string, k ...int) uint64 {
	s := rng.Mix(o.seed, tagHash(tag))
	for _, v := range k {
		s = rng.Mix(s, uint64(v))
	}
	if s == 0 { // 0 asks the service for an id-derived default
		s = 1
	}
	return s
}

func tagHash(tag string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return h
}

// env is a built system, ready for a timed pass.
type env interface {
	// run drives the workload until deadline and returns what it saw.
	run(ctx context.Context, deadline time.Time) (*passResult, error)
	// close stops every goroutine and server the env started and
	// removes its files.
	close()
}

// workload is one benchmark input set.
type workload struct {
	name string
	// setup builds the system, including its warm-up; tr is nil for
	// untraced passes.
	setup func(o *opts, dir string, tr *tracer) (env, error)
	// layers derives the per-layer metrics from an untraced and a
	// traced pass of the same inputs.
	layers func(timed, traced *passResult, spans []span) map[string]float64
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// passResult is what one timed pass measured.
type passResult struct {
	labels    int64           // labels accepted in the window
	wall      time.Duration   // window wall time, start to the last unit's stop
	rate      float64         // labels_per_s
	units     []time.Duration // completed units: sessions, drains, tuning runs
	attempted int64
	failed    int64
	heapMB    float64

	// outputs maps a unit key to its canonical output, compared between
	// the untraced and the traced pass.
	outputs map[string]string
	// problems lists output-check failures.
	problems []string
	// samples are latency samples printed with their counts.
	samples map[string][]float64

	allocMB  float64 // bytes allocated during the window, MiB
	gcCycles uint32  // GC cycles during the window
	done     int     // completed units

	campaign []*experiment.CampaignResult // campaign-fig2 drains
	tunes    []*tuneRec                   // tune-fleet runs
}

func (p *passResult) problemf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// memMark samples the runtime counters the window deltas are taken from.
type memMark struct {
	alloc uint64
	gc    uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC}
}

func (p *passResult) memDelta(from memMark) {
	to := markMem()
	p.allocMB = float64(to.alloc-from.alloc) / (1 << 20)
	p.gcCycles = to.gc - from.gc
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one entry of the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"labels_per_s", "1/s"},
	{"session_p50_s", "s"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics and their units, in print order.
var perLayer = []struct{ name, unit string }{
	{"client.ask_p50_ms", "ms"},
	{"client.tell_p50_ms", "ms"},
	{"fleet.eval_p50_ms", "ms"},
	{"server.ask_handler_ms", "ms"},
	{"server.tell_handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.codec_ms", "ms"},
	{"server.ask_resp_bytes", "B"},
	{"server.tell_req_bytes", "B"},
	{"core.ask_ms", "ms"},
	{"core.tell_ms", "ms"},
	{"core.select_ms", "ms"},
	{"pool.scan_ms", "ms"},
	{"pool.source_ms", "ms"},
	{"pool.candidates_per_ask", "count"},
	{"forest.fit_ms", "ms"},
	{"forest.fits", "count/unit"},
	{"runstate.checkpoint_ms", "ms"},
	{"runstate.checkpoint_bytes", "B"},
	{"campaign.busy_s", "s/unit"},
	{"campaign.utilization", "1"},
	{"campaign.steals", "count/unit"},
	{"dataset.builds", "count/unit"},
	{"dataset.hits", "count/unit"},
	{"experiment.nonfit_s", "s/unit"},
	{"fleet.submit_ms", "ms"},
	{"fleet.wait_ms", "ms"},
	{"fleet.run_ms", "ms"},
	{"fleet.dispatch_ms", "ms"},
	{"fleet.tasks", "count/unit"},
	{"fleet.requeues", "count/unit"},
	{"autotune.local_s", "s/unit"},
	{"runtime.alloc_mb_per_label", "MB/label"},
	{"runtime.gc_cycles", "count/klabel"},
	{"runtime.live_heap_mb", "MB"},
	{"trace.labels_per_s_delta", "1/s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; derives every generated input")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o := &opts{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	o.dir = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := execute(w, o, stdout)
	if rmErr := os.RemoveAll(o.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// setupAndRun builds the system setupRepeats times (or once when
// traced), keeps the last build, and runs one pass on it.
func setupAndRun(w *workload, o *opts, tag string, window time.Duration, tr *tracer) (*passResult, []time.Duration, error) {
	repeats := setupRepeats
	if tr != nil {
		repeats = 1
	}
	var setups []time.Duration
	var e env
	for i := 0; i < repeats; i++ {
		start := time.Now()
		var err error
		e, err = w.setup(o, filepath.Join(o.dir, fmt.Sprintf("%s-%d", tag, i)), tr)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		if i < repeats-1 {
			e.close()
		}
	}
	res, err := e.run(context.Background(), time.Now().Add(window))
	e.close()
	if err != nil {
		return nil, nil, err
	}
	return res, setups, nil
}

func execute(w *workload, o *opts, out io.Writer) (*result, error) {
	window := o.window
	if o.trace {
		window /= 2
	}
	timed, setups, err := setupAndRun(w, o, "timed", window, nil)
	if err != nil {
		return nil, err
	}
	setup := median(secs(setups))
	fmt.Fprintf(out, "workload %s seed %d window %v\n", o.workload, o.seed, window)
	printPass(out, "untraced", timed)
	fmt.Fprintf(out, "  setup_s %.4f s (median of %d set-ups: %v)\n", setup, len(setups), setups)

	res := &result{
		Correct:   len(timed.problems) == 0,
		Attempted: timed.attempted,
		Failed:    timed.failed,
		Metrics:   map[string]metric{},
	}
	if timed.done == 0 {
		res.Correct = false
		timed.problemf("no unit completed inside the window")
	}
	values := map[string]float64{
		"labels_per_s":  timed.rate,
		"session_p50_s": median(secs(timed.units)),
		"setup_s":       setup,
	}
	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{finite(values[m.name]), m.unit}
		}
		reportProblems(out, timed.problems)
		return res, nil
	}

	tr := newTracer()
	traced, _, err := setupAndRun(w, o, "traced", window, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	printPass(out, "traced", traced)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	problems := append(timed.problems, traced.problems...)
	problems = append(problems, compareOutputs(timed.outputs, traced.outputs)...)
	res.Correct = res.Correct && len(problems) == 0 && traced.done > 0

	spans := tr.snapshot()
	layers := w.layers(timed, traced, spans)
	layers["runtime.alloc_mb_per_label"] = perLabel(timed.allocMB, timed.labels)
	layers["runtime.gc_cycles"] = 1000 * perLabel(float64(timed.gcCycles), timed.labels)
	layers["runtime.live_heap_mb"] = timed.heapMB
	layers["trace.labels_per_s_delta"] = traced.rate - timed.rate
	for name, sample := range map[string]string{
		"client.ask_p50_ms": "ask_rt_ms", "client.tell_p50_ms": "tell_rt_ms", "fleet.eval_p50_ms": "eval_rt_ms",
	} {
		if xs := timed.samples[sample]; len(xs) > 0 {
			layers[name] = median(xs)
		}
	}
	fmt.Fprintf(out, "  tracing overhead: traced - untraced labels_per_s = %.4g - %.4g = %.4g 1/s\n",
		traced.rate, timed.rate, traced.rate-timed.rate)
	fmt.Fprintln(out, "  spans (self = duration minus the time its child spans cover):")
	printSummary(out, summarize(spans))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{finite(layers[m.name]), m.unit}
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, layers[m.name], m.unit)
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  trace written to %s (%d spans)\n", path, len(spans))
	reportProblems(out, problems)
	return res, nil
}

// finite maps the NaN of an empty sample to 0, which JSON can carry; a
// run without samples already fails its output checks.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func perLabel(x float64, labels int64) float64 {
	if labels == 0 {
		return 0
	}
	return x / float64(labels)
}

func printPass(out io.Writer, label string, p *passResult) {
	fmt.Fprintf(out, "  [%s] labels_per_s %.4f 1/s (%d labels in %.3f s)\n", label, p.rate, p.labels, p.wall.Seconds())
	fmt.Fprintf(out, "  [%s] session_p50_s %s\n", label, describe(secs(p.units), "s"))
	if len(p.units) <= 12 {
		fmt.Fprintf(out, "  [%s] unit durations %v\n", label, p.units)
	}
	fmt.Fprintf(out, "  [%s] live_heap_mb %.4f MB\n", label, p.heapMB)
	fmt.Fprintf(out, "  [%s] runtime %.1f MB allocated, %d GC cycles\n", label, p.allocMB, p.gcCycles)
	frac := 0.0
	if p.attempted > 0 {
		frac = float64(p.failed) / float64(p.attempted)
	}
	fmt.Fprintf(out, "  [%s] fail_frac %.4g 1 (%d of %d operations)\n", label, frac, p.failed, p.attempted)
	var names []string
	for n := range p.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  [%s] %s %s\n", label, n, describe(p.samples[n], "ms"))
	}
}

func reportProblems(out io.Writer, problems []string) {
	for _, p := range problems {
		fmt.Fprintf(out, "  OUTPUT CHECK FAILED: %s\n", p)
	}
}

// compareOutputs checks that every unit both passes completed produced
// identical outputs, and that they share at least one.
func compareOutputs(a, b map[string]string) []string {
	var problems []string
	common := 0
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			continue
		}
		common++
		if va != vb {
			problems = append(problems, fmt.Sprintf("unit %s: traced output differs from untraced", k))
		}
	}
	if common == 0 {
		problems = append(problems, "the untraced and traced passes completed no common unit")
	}
	return problems
}

// fits reports whether one more sequential unit should start: one that
// takes the median of the units so far would end no later than half a
// unit after the deadline, so the window holds the nearest whole number
// of units. The first unit always runs.
func fits(deadline time.Time, units []time.Duration) bool {
	if len(units) == 0 {
		return true
	}
	half := time.Duration(median(secs(units)) / 2 * float64(time.Second))
	return time.Now().Add(half).Before(deadline)
}

// unitRate is labels_per_s for workloads that run their units one after
// another, each with the same number of labels: the median of the
// per-unit rates, so one disturbed unit does not move it.
func unitRate(labelsPerUnit int, units []time.Duration) float64 {
	rates := make([]float64, len(units))
	for i, u := range units {
		rates[i] = float64(labelsPerUnit) / u.Seconds()
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}
