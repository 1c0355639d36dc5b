package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/rng"
)

// tuneProblem is the kernel tune-fleet tunes.
const tuneProblem = "gemver"

// tune-fleet is the `tune -remote` deployment: autotune.Tune with
// Default() sizes whose every measurement goes to an embedded fleet
// coordinator served on loopback, with one in-process worker running
// the standard runner. It is the only workload where fleet dispatch and
// the surrogate search run.
func init() {
	register(&workload{name: "tune-fleet", setup: startTune, layers: tuneLayers})
}

type tuneEnv struct {
	o      *opts
	tr     *tracer
	cfg    autotune.Config // of the timed runs
	prob   bench.Problem
	coord  *fleet.Coordinator
	srv    *http.Server
	served chan error
	stop   context.CancelFunc
	worker chan error

	// current is the tuning-run span and group the fleet spans nest
	// under; waiting is the fleet.wait span a worker execution belongs
	// to (the remote evaluator keeps one task in flight at a time).
	mu      sync.Mutex
	current spanID
	group   string
	waiting atomic.Uint64
	evals   []float64 // SubmitTasks → Wait round trips, ms
}

func startTune(o *opts, _ string, tr *tracer) (env, error) {
	return startTuneWith(o, tr, autotune.Default())
}

// startTuneWith starts the coordinator and the worker, with timed runs
// sized by cfg; set-up ends after warm-up rounds through the fleet.
func startTuneWith(o *opts, tr *tracer, cfg autotune.Config) (*tuneEnv, error) {
	p, err := bench.ByName(tuneProblem)
	if err != nil {
		return nil, err
	}
	e := &tuneEnv{o: o, tr: tr, cfg: cfg, prob: p, coord: fleet.New(fleet.Config{}), served: make(chan error, 1), worker: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.coord.Close()
		return nil, err
	}
	h := e.coord.Handler()
	var polls atomic.Int64 // lease requests answered
	e.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/fleet/lease" {
			polls.Add(1)
		}
	})}
	go func() { e.served <- e.srv.Serve(ln) }()
	// A probe task queued before the worker starts is leased by the
	// worker's first poll, so set-up does not wait a random part of an
	// idle-poll interval. Each warm-up round is then submitted only after
	// the worker's empty re-poll that follows a completion: submitted
	// earlier, it would race that poll, and set-up would take 200 ms more
	// or less from run to run.
	probe := fleet.TaskSpec{Key: "probe", Eval: &fleet.EvalTask{
		Problem: p.Name(), State: bench.Evaluator(p, rng.New(1)).EvaluatorState(),
		Configs: [][]int{make([]int, p.Space().NumParams())},
	}}
	job, _, err := e.coord.SubmitTasks("", []fleet.TaskSpec{probe})
	if err != nil {
		e.srv.Close()
		<-e.served
		e.coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stop = cancel
	w := &fleet.Worker{Coordinator: "http://" + ln.Addr().String(), Name: "perfbench-worker",
		Runner: tracedRunner{Runner: experiment.NewFleetRunner(), e: e}}
	go func() { e.worker <- w.Run(ctx) }()
	if err := warmFleet(job, e.coord, probe, &polls); err != nil {
		e.close()
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return e, nil
}

func (e *tuneEnv) close() {
	e.stop()
	<-e.worker
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	<-e.served
	e.coord.Close()
}

// warmRounds is the number of remote rounds set-up runs after the probe.
const warmRounds = 3

// warmFleet waits for the probe job, then runs warmRounds more rounds of
// the same task. polls counts the lease requests answered; each
// completion is followed by one empty re-poll.
func warmFleet(job fleet.Handle, sub fleet.Submitter, task fleet.TaskSpec, polls *atomic.Int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for round := 0; ; round++ {
		results, err := job.Wait(ctx)
		if err != nil {
			return err
		}
		if len(results) != 1 || results[0].Failed != "" {
			return fmt.Errorf("round %d failed: %v", round, results)
		}
		for polls.Load() < int64(2*(round+1)) {
			if ctx.Err() != nil {
				return errors.New("the worker stopped polling")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if round == warmRounds {
			return nil
		}
		task.Key = fmt.Sprintf("warm-%d", round)
		if job, _, err = sub.SubmitTasks("", []fleet.TaskSpec{task}); err != nil {
			return err
		}
	}
}

// timedSubmitter times SubmitTasks and the returned Handle's Wait. The
// round trips are kept in both passes; spans only when traced.
type timedSubmitter struct {
	fleet.Submitter
	e *tuneEnv
}

func (s timedSubmitter) SubmitTasks(id string, specs []fleet.TaskSpec) (fleet.Handle, bool, error) {
	e := s.e
	tr, parent, group := e.spanScope()
	sid, start := tr.open()
	t0 := time.Now()
	h, attached, err := s.Submitter.SubmitTasks(id, specs)
	tr.close(sid, parent, group, "fleet.submit", start, map[string]int64{"tasks": int64(len(specs))})
	if err != nil {
		return nil, attached, err
	}
	return timedHandle{Handle: h, e: e, tr: tr, parent: parent, group: group, t0: t0}, attached, nil
}

// spanScope returns the tracer, parent span and group for fleet spans:
// no tracer outside a timed tuning run (set-up's probe and warm-up).
func (e *tuneEnv) spanScope() (*tracer, spanID, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.group == "" {
		return nil, 0, ""
	}
	return e.tr, e.current, e.group
}

type timedHandle struct {
	fleet.Handle
	e      *tuneEnv
	tr     *tracer
	parent spanID
	group  string
	t0     time.Time
}

func (h timedHandle) Wait(ctx context.Context) ([]fleet.TaskResult, error) {
	e := h.e
	id, start := h.tr.open()
	e.waiting.Store(uint64(id))
	res, err := h.Handle.Wait(ctx)
	h.tr.close(id, h.parent, h.group, "fleet.wait", start, nil)
	e.mu.Lock()
	e.evals = append(e.evals, float64(time.Since(h.t0))/1e6)
	e.mu.Unlock()
	return res, err
}

// tracedRunner times the worker's evaluation of each task.
type tracedRunner struct {
	fleet.Runner
	e *tuneEnv
}

func (r tracedRunner) RunEval(ctx context.Context, t *fleet.EvalTask) *fleet.EvalResult {
	tr, _, group := r.e.spanScope()
	id, start := tr.open()
	res := r.Runner.RunEval(ctx, t)
	tr.close(id, spanID(r.e.waiting.Load()), group, "fleet.run", start, nil)
	return res
}

// tuneRec is one tuning run and the coordinator counters it moved.
type tuneRec struct {
	out                     *autotune.Outcome
	tasks, failed, requeues int64
}

func (e *tuneEnv) run(ctx context.Context, deadline time.Time) (*passResult, error) {
	res := &passResult{outputs: map[string]string{}, samples: map[string][]float64{}}
	cfg := e.cfg
	cfg.Remote = timedSubmitter{Submitter: e.coord, e: e}
	mark := markMem()
	start := time.Now()
	var walls []time.Duration // every unit's, for the stopping rule
	for k := 0; fits(deadline, walls); k++ {
		group := fmt.Sprintf("tune%d", k)
		id, spanStart := e.tr.open()
		e.mu.Lock()
		e.current, e.group = id, group
		e.mu.Unlock()
		before := e.coord.Stats()
		t0 := time.Now()
		out, err := autotune.Tune(ctx, e.prob, cfg, e.o.unitSeed("tune", k))
		wall := time.Since(t0)
		walls = append(walls, wall)
		e.tr.close(id, 0, group, "autotune.tune", spanStart, nil)
		after := e.coord.Stats()
		rec := &tuneRec{out: out, tasks: after.Submitted - before.Submitted,
			failed: after.Failed - before.Failed, requeues: after.Requeues - before.Requeues}
		res.attempted += rec.tasks
		res.failed += rec.failed + rec.requeues
		if err != nil {
			res.problemf("tune %d: %v", k, err)
			continue
		}
		if err := checkOutcome(e.prob, cfg, out); err != nil {
			res.problemf("tune %d: %v", k, err)
			continue
		}
		b, err := json.Marshal(out)
		if err != nil {
			return nil, err
		}
		res.outputs[group] = string(b)
		res.units = append(res.units, wall)
		res.labels += int64(out.RealRuns)
		res.done++
		res.tunes = append(res.tunes, rec)
	}
	e.mu.Lock()
	e.current, e.group = 0, ""
	e.mu.Unlock()
	res.wall = time.Since(start)
	res.memDelta(mark)
	res.heapMB = liveHeapMB()
	res.rate = unitRate(cfg.ModelBudget+cfg.Verify+1, res.units)
	e.mu.Lock()
	res.samples["eval_rt_ms"] = e.evals
	e.evals = nil
	e.mu.Unlock()
	return res, nil
}

// checkOutcome validates a tuning run's outcome.
func checkOutcome(p bench.Problem, cfg autotune.Config, out *autotune.Outcome) error {
	if want := cfg.ModelBudget + cfg.Verify + 1; out.RealRuns != want {
		return fmt.Errorf("%d real runs, want %d", out.RealRuns, want)
	}
	if err := p.Space().Validate(out.Best); err != nil {
		return fmt.Errorf("best configuration: %w", err)
	}
	for _, v := range []float64{out.BestMeasured, out.BaselineMeasured, out.ModelCost} {
		if !(v > 0) || math.IsInf(v, 0) {
			return errors.New("non-finite or non-positive measurement in the outcome")
		}
	}
	return nil
}

// tuneLayers splits each remote batch into submit, wait and worker run
// time, and the tuning run into fleet time and local time.
func tuneLayers(timed, traced *passResult, spans []span) map[string]float64 {
	ix := indexSpans(spans)
	var dispatch []float64
	for _, w := range ix.byName["fleet.wait"] {
		if runs := ix.child[w.ID]["fleet.run"]; len(runs) == 1 {
			dispatch = append(dispatch, msOf(w.dur()-runs[0].dur()))
		}
	}
	self := selfTimes(spans)
	var local []float64
	for _, t := range ix.byName["autotune.tune"] {
		if _, ok := traced.outputs[t.Group]; ok {
			local = append(local, self[t.ID].Seconds())
		}
	}
	var tasks, requeues []float64
	for _, r := range timed.tunes {
		tasks = append(tasks, float64(r.tasks))
		requeues = append(requeues, float64(r.requeues))
	}
	return map[string]float64{
		"fleet.submit_ms":   ix.meanMs("fleet.submit"),
		"fleet.wait_ms":     ix.meanMs("fleet.wait"),
		"fleet.run_ms":      ix.meanMs("fleet.run"),
		"fleet.dispatch_ms": mean(dispatch),
		"fleet.tasks":       mean(tasks),
		"fleet.requeues":    mean(requeues),
		"autotune.local_s":  mean(local),
	}
}
