package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/experiment"
)

func TestPercentileInterpolatesLikeInclusiveQuantiles(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 6, 5, 8}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25}, {0.75, 7.75},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3}, 0.9); got != 3 {
		t.Errorf("single sample: %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if beyond(99, 0.9) != 9 || beyond(100, 0.9) != 10 {
		t.Errorf("beyond(99|100, 0.9) = %d, %d; want 9, 10", beyond(99, 0.9), beyond(100, 0.9))
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := describe(xs, "ms"); !strings.Contains(s, "p90") || !strings.Contains(s, "n=100") {
		t.Errorf("describe(100 samples) = %q, want p90 and the count", s)
	}
	if s := describe(xs[:99], "ms"); strings.Contains(s, "p90") || !strings.Contains(s, "n=99") {
		t.Errorf("describe(99 samples) = %q, want no p90 and the count", s)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 40},  // overlaps 2
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped at 100
	}
	self := selfTimes(spans)
	if self[1] != 60 {
		t.Errorf("self time of the parent = %d, want 60", self[1])
	}
	sums := summarize(spans)
	if len(sums) != 2 || sums[1].Name != "p" || sums[1].Self != 60 || sums[0].Count != 3 {
		t.Errorf("summary = %+v", sums)
	}
}

func testOpts(t *testing.T) *opts {
	return &opts{workload: "test", seed: 5, dir: t.TempDir()}
}

// tinyServe is a serve workload small enough to run many sessions in a
// fraction of a second.
var tinyServe = serveSpec{name: "tiny", poolSize: 400, nInit: 6, nBatch: 2, nMax: 14, trees: 4, warmPool: 300, warmNMax: 8}

func servePass(t *testing.T, o *opts, tr *tracer) *passResult {
	t.Helper()
	e, err := startServe(o, tinyServe, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.run(context.Background(), time.Now().Add(500*time.Millisecond))
	e.close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 || res.failed > 0 || res.done == 0 {
		t.Fatalf("pass: problems %v, %d failed, %d sessions done", res.problems, res.failed, res.done)
	}
	return res
}

func TestServeTracedPassMatchesUntracedAndPairsEveryStep(t *testing.T) {
	o := testOpts(t)
	plain := servePass(t, o, nil)
	tr := newTracer()
	traced := servePass(t, o, tr)
	if p := compareOutputs(plain.outputs, traced.outputs); len(p) > 0 {
		t.Fatal(p)
	}

	ix := indexSpans(tr.snapshot())
	type key struct {
		group, op string
		seq       int64
	}
	twinSteps := map[key]bool{}
	for _, op := range []string{"ask", "tell"} {
		for _, s := range ix.byName["core."+op] {
			twinSteps[key{s.Group, op, s.Attrs["seq"]}] = true
		}
	}
	paired := 0
	for _, op := range []string{"ask", "tell"} {
		for _, c := range ix.byName["client."+op] {
			if _, done := traced.outputs[c.Group]; !done {
				continue
			}
			if n := len(ix.child[c.ID]["server."+op]); n != 1 {
				t.Fatalf("%s %s seq %d has %d handler spans, want 1", c.Group, op, c.Attrs["seq"], n)
			}
			if !twinSteps[key{c.Group, op, c.Attrs["seq"]}] {
				t.Fatalf("%s %s seq %d has no twin step", c.Group, op, c.Attrs["seq"])
			}
			paired++
		}
	}
	// Each completed session makes one ask and one tell per batch.
	perSession := 2 * (1 + (tinyServe.nMax-tinyServe.nInit)/tinyServe.nBatch)
	if paired != perSession*len(traced.outputs) {
		t.Fatalf("paired %d steps, want %d", paired, perSession*len(traced.outputs))
	}
	layers := serveLayers(plain, traced, tr.snapshot())
	for _, name := range []string{"server.ask_handler_ms", "core.tell_ms", "forest.fit_ms", "runstate.checkpoint_bytes", "pool.candidates_per_ask"} {
		if !(layers[name] > 0) {
			t.Errorf("%s = %g, want > 0", name, layers[name])
		}
	}
	if want := float64(1 + (tinyServe.nMax-tinyServe.nInit)/tinyServe.nBatch); layers["forest.fits"] != want {
		t.Errorf("forest.fits = %g per session, want %g", layers["forest.fits"], want)
	}
}

func TestTwinReplayDetectsADifferentSession(t *testing.T) {
	o := testOpts(t)
	e, err := startServe(o, tinyServe, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	c := e.clients[0]
	cr := &clientRun{}
	rec := c.session(context.Background(), "k", c.request(tinyServe.poolSize, tinyServe.nMax, 99), 7, time.Time{}, nil, cr)
	if !rec.done {
		t.Fatalf("session did not complete: %v", rec.err)
	}
	if err := replayTwin(context.Background(), rec); err != nil {
		t.Fatalf("replay of the same inputs: %v", err)
	}
	other := *rec.req
	other.Seed++
	rec.req = &other
	if err := replayTwin(context.Background(), rec); err == nil {
		t.Fatal("a twin with another session seed paired with the service's steps")
	}
}

func TestCampaignTracedPassMatchesUntraced(t *testing.T) {
	o := testOpts(t)
	sc := experiment.Smoke()
	sc.Reps = 1
	pass := func(tr *tracer) *passResult {
		e, err := startCampaignAt(o, tr, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.run(context.Background(), time.Now())
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 || res.done != 1 {
			t.Fatalf("pass: problems %v, %d drains", res.problems, res.done)
		}
		return res
	}
	plain := pass(nil)
	tr := newTracer()
	traced := pass(tr)
	if p := compareOutputs(plain.outputs, traced.outputs); len(p) > 0 {
		t.Fatal(p)
	}
	layers := campaignLayers(plain, traced, tr.snapshot())
	cells := len(campaignKernels) * len(campaignStrategies)
	if layers["dataset.builds"] != float64(len(campaignKernels)) || layers["dataset.hits"] != float64(cells-len(campaignKernels)) {
		t.Errorf("dataset builds %g hits %g", layers["dataset.builds"], layers["dataset.hits"])
	}
	if !(layers["forest.fits"] >= float64(cells)) || !(layers["forest.fit_ms"] > 0) {
		t.Errorf("forest.fits %g, forest.fit_ms %g", layers["forest.fits"], layers["forest.fit_ms"])
	}
}

func TestTuneTracedPassMatchesUntraced(t *testing.T) {
	o := testOpts(t)
	cfg := autotune.Default()
	cfg.PoolSize, cfg.ModelBudget, cfg.SearchBudget, cfg.Verify = 300, 20, 500, 1
	pass := func(tr *tracer) *passResult {
		e, err := startTuneWith(o, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.run(context.Background(), time.Now())
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 || res.failed > 0 || res.done != 1 {
			t.Fatalf("pass: problems %v, %d failed, %d runs", res.problems, res.failed, res.done)
		}
		return res
	}
	plain := pass(nil)
	tr := newTracer()
	traced := pass(tr)
	if p := compareOutputs(plain.outputs, traced.outputs); len(p) > 0 {
		t.Fatal(p)
	}
	layers := tuneLayers(plain, traced, tr.snapshot())
	if layers["fleet.tasks"] != float64(plain.tunes[0].tasks) || !(layers["fleet.run_ms"] > 0) || !(layers["fleet.wait_ms"] >= layers["fleet.run_ms"]) {
		t.Errorf("fleet layers %v", layers)
	}
}
