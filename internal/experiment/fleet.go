package experiment

// Fleet glue: the worker-side runner that executes leased campaign
// cells and evaluation tasks, and the client-side campaign drain that
// submits a grid to a fleet coordinator instead of the in-process
// scheduler. Both sides preserve the campaign determinism contract —
// cell seeds derive from (campaign seed, rep), never from scheduling —
// so a fleet campaign is bit-identical to the local drain (and to the
// sequential per-strategy oracle of the tests) however the leases
// bounce.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/space"
)

// scaleSpec converts a Scale to its wire form. A custom Fitter is a
// function value and cannot travel; fleet campaigns reject it up
// front instead of silently running the default forest remotely.
func scaleSpec(sc Scale) (fleet.ScaleSpec, error) {
	if sc.Fitter != nil {
		return fleet.ScaleSpec{}, errors.New("experiment: fleet campaigns cannot ship a custom Fitter; it is not serializable")
	}
	return fleet.ScaleSpec{
		PoolSize: sc.PoolSize, TestSize: sc.TestSize,
		NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax,
		Reps: sc.Reps, Alpha: sc.Alpha, EvalEvery: sc.EvalEvery,
		Forest: sc.Forest, WarmUpdate: sc.WarmUpdate,
		Failure: sc.Failure, Guard: sc.Guard, Chaos: sc.Chaos,
	}, nil
}

// specScale is the inverse, applied worker-side.
func specScale(sp fleet.ScaleSpec) Scale {
	return Scale{
		PoolSize: sp.PoolSize, TestSize: sp.TestSize,
		NInit: sp.NInit, NBatch: sp.NBatch, NMax: sp.NMax,
		Reps: sp.Reps, Alpha: sp.Alpha, EvalEvery: sp.EvalEvery,
		Forest: sp.Forest, WarmUpdate: sp.WarmUpdate,
		Failure: sp.Failure, Guard: sp.Guard, Chaos: sp.Chaos,
	}
}

// fleetRunner executes leased tasks on a worker. It holds the worker's
// own single-flight dataset cache: every strategy's repetition r of a
// problem shares the rep-seeded dataset, so a worker that leases
// several cells of the same repetition builds the split once — the
// same saving the in-process campaign cache provides, now per worker.
type fleetRunner struct {
	cache *campaign.Datasets
}

// NewFleetRunner returns the standard worker runner: campaign cells
// through runOnce (bit-identical to the local scheduler's execution),
// evaluation tasks through the named problem's stateful evaluator.
func NewFleetRunner() fleet.Runner {
	return &fleetRunner{cache: campaign.NewDatasets()}
}

// RunCell executes one campaign cell. An evaluator panic is recovered
// into ErrKindPanic with the stack, mirroring what the in-process
// scheduler's quarantine records; re-executions panic identically, so
// the coordinator's retries cannot mask a poisoned cell.
func (fr *fleetRunner) RunCell(ctx context.Context, t *fleet.CellTask) (res *fleet.CellResult) {
	res = &fleet.CellResult{}
	defer func() {
		if v := recover(); v != nil {
			res.ErrKind = fleet.ErrKindPanic
			res.PanicValue = fmt.Sprint(v)
			res.PanicStack = string(debug.Stack())
		}
	}()
	p, err := bench.ByName(t.Problem)
	if err != nil {
		res.ErrKind = fleet.ErrKindError
		res.Err = err.Error()
		return res
	}
	sc := specScale(t.Scale)
	if _, err := strategyFor(t.Strategy, sc.Alpha); err != nil {
		res.ErrKind = fleet.ErrKindError
		res.Err = err.Error()
		return res
	}
	rr := runOnce(ctx, p, t.Strategy, sc, rng.Mix(t.Seed, uint64(t.Rep)), cachedProvider(fr.cache))
	res.RMSE, res.CC, res.Stats = rr.rmse, rr.cc, rr.stats
	if rr.err != nil {
		res.Err = rr.err.Error()
		if errors.Is(rr.err, context.Canceled) || errors.Is(rr.err, context.DeadlineExceeded) {
			res.ErrKind = fleet.ErrKindCanceled
		} else {
			res.ErrKind = fleet.ErrKindError
		}
		res.RMSE, res.CC = nil, nil
	}
	return res
}

// RunEval measures the task's configurations in order, resuming the
// shipped noise-stream state and returning the advanced state.
func (fr *fleetRunner) RunEval(ctx context.Context, t *fleet.EvalTask) *fleet.EvalResult {
	res := &fleet.EvalResult{State: t.State}
	p, err := bench.ByName(t.Problem)
	if err != nil {
		res.ErrKind = fleet.ErrKindError
		res.Err = err.Error()
		return res
	}
	ev := bench.Evaluator(p, rng.New(0))
	if err := ev.RestoreEvaluatorState(t.State); err != nil {
		res.ErrKind = fleet.ErrKindError
		res.Err = err.Error()
		return res
	}
	res.Ys = make([]float64, 0, len(t.Configs))
	for _, cfg := range t.Configs {
		y, err := ev.Evaluate(ctx, space.Config(cfg))
		if err != nil {
			res.Ys = nil
			res.Err = err.Error()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				res.ErrKind = fleet.ErrKindCanceled
			} else {
				res.ErrKind = fleet.ErrKindError
			}
			return res
		}
		res.Ys = append(res.Ys, y)
	}
	res.State = ev.EvaluatorState()
	return res
}

// cellKey is the deterministic task coordinate of one campaign cell —
// the idempotency key duplicate completions collapse on.
func cellKey(problem, strategy string, rep int) string {
	return fmt.Sprintf("cell/%s/%s/%d", problem, strategy, rep)
}

// CampaignJobID derives the campaign's deterministic fleet job ID from
// its seed and grid coordinates. A submitter that restarts re-derives
// the same ID from the same campaign and reattaches to the job its
// previous incarnation left running in a journaled coordinator —
// SubmitTasks' spec fingerprint check holds because the specs are
// re-derived bit-identically too.
func CampaignJobID(c Campaign) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed/%d\n", c.Seed)
	for _, it := range c.Items {
		for _, name := range c.Strategies {
			fmt.Fprintf(h, "%s/%s/%d\n", it.Problem.Name(), name, it.Scale.Reps)
		}
	}
	return fmt.Sprintf("campaign/%016x", h.Sum64())
}

// RunCampaignFleet drains the campaign grid through a fleet submitter
// — the in-process *fleet.Coordinator, or a *fleet.Client against a
// resident fleetd: one leasable task per (problem × strategy × rep)
// cell, executed by whatever workers are registered. Aggregation,
// panic quarantine and cancellation semantics match RunCampaign
// exactly; because cell seeds are scheduling-independent and results
// travel as checksummed JSON (float64s round-trip bit-exactly), the
// curves are bit-identical to the local drain whenever re-leases cover
// the faults.
//
// The submission uses the campaign's deterministic job ID, so a
// submitter that died mid-wait and reruns the same campaign attaches
// to the surviving job instead of re-evaluating its completed cells.
// A coordinator shutdown mid-wait surfaces as an error wrapping
// fleet.ErrClosed — retry once the coordinator is back; nothing
// completed is lost when it journals.
//
// The Scheduler telemetry maps the fleet drain onto campaign.Stats:
// Workers is the coordinator's peak registration count, Steals counts
// lease re-queues (work that moved between workers), Busy sums
// worker-reported execution time. Datasets stays zero — each worker
// keeps its own cache.
func RunCampaignFleet(ctx context.Context, c Campaign, sub fleet.Submitter) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, it := range c.Items {
		for _, name := range c.Strategies {
			if _, err := strategyFor(name, it.Scale.Alpha); err != nil {
				return nil, fmt.Errorf("experiment: %s/%s: %w", it.Problem.Name(), name, err)
			}
		}
	}

	type cellAddr struct{ ii, si, rep int }
	addr := make(map[string]cellAddr)
	var specs []fleet.TaskSpec
	results := make([][][]repResult, len(c.Items))
	for ii, it := range c.Items {
		results[ii] = make([][]repResult, len(c.Strategies))
		spec, err := scaleSpec(it.Scale)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", it.Problem.Name(), err)
		}
		for si, name := range c.Strategies {
			results[ii][si] = make([]repResult, it.Scale.Reps)
			for rep := 0; rep < it.Scale.Reps; rep++ {
				key := cellKey(it.Problem.Name(), name, rep)
				addr[key] = cellAddr{ii, si, rep}
				specs = append(specs, fleet.TaskSpec{
					Key: key,
					Cell: &fleet.CellTask{
						Problem: it.Problem.Name(), Strategy: name,
						Rep: rep, Seed: c.Seed, Scale: spec,
					},
				})
			}
		}
	}

	job, _, err := sub.SubmitTasks(CampaignJobID(c), specs)
	if err != nil {
		return nil, fmt.Errorf("experiment: fleet submit: %w", err)
	}
	start := time.Now()
	taskResults, waitErr := job.Wait(ctx)
	wall := time.Since(start)
	if errors.Is(waitErr, fleet.ErrClosed) || (waitErr != nil && len(taskResults) == 0) {
		// The coordinator went away under us (reattach once it is
		// back), or a remote Wait was abandoned before anything could
		// be collected — there is no partial grid to aggregate.
		return nil, fmt.Errorf("experiment: fleet wait: %w", waitErr)
	}

	res := &CampaignResult{Curves: make(map[string][]*CurveSet, len(c.Items))}
	var busy time.Duration
	requeues := 0
	for _, tr := range taskResults {
		a, ok := addr[tr.Key]
		if !ok {
			continue
		}
		it := c.Items[a.ii]
		name := c.Strategies[a.si]
		if tr.Attempts > 1 {
			requeues += tr.Attempts - 1
		}
		busy += tr.Elapsed
		if tr.Failed != "" {
			if waitErr != nil && tr.Failed == "canceled" {
				results[a.ii][a.si][a.rep] = repResult{err: fmt.Errorf("fleet: %s: %w", tr.Key, waitErr)}
			} else {
				results[a.ii][a.si][a.rep] = repResult{err: fmt.Errorf("fleet: task %s: %s", tr.Key, tr.Failed)}
			}
			continue
		}
		var cr fleet.CellResult
		if err := json.Unmarshal(tr.Payload, &cr); err != nil {
			results[a.ii][a.si][a.rep] = repResult{err: fmt.Errorf("fleet: task %s: decoding result: %w", tr.Key, err)}
			continue
		}
		switch cr.ErrKind {
		case "":
			results[a.ii][a.si][a.rep] = repResult{rmse: cr.RMSE, cc: cr.CC, stats: cr.Stats}
		case fleet.ErrKindPanic:
			results[a.ii][a.si][a.rep] = repResult{
				err: fmt.Errorf("%w: %s/%s rep %d: %s", ErrRepPanic, it.Problem.Name(), name, a.rep, cr.PanicValue),
			}
			res.Quarantined = append(res.Quarantined, QuarantinedTask{
				Problem: it.Problem.Name(), Strategy: name, Rep: a.rep,
				Value: cr.PanicValue, Stack: cr.PanicStack,
			})
		case fleet.ErrKindCanceled:
			results[a.ii][a.si][a.rep] = repResult{
				err:   fmt.Errorf("fleet: task %s: %s: %w", tr.Key, cr.Err, context.Canceled),
				rmse:  cr.RMSE,
				cc:    cr.CC,
				stats: cr.Stats,
			}
		default:
			results[a.ii][a.si][a.rep] = repResult{err: fmt.Errorf("fleet: task %s: %s", tr.Key, cr.Err)}
		}
	}

	fst, statsErr := sub.SubmitterStats()
	if statsErr != nil {
		fst = fleet.Stats{} // telemetry only; never fail the campaign over it
	}
	res.Scheduler = campaign.Stats{
		Workers: fst.PeakWorkers,
		Tasks:   len(taskResults),
		Steals:  requeues,
		Busy:    busy,
		Wall:    wall,
	}
	if wall > 0 && fst.PeakWorkers > 0 {
		res.Scheduler.Utilization = busy.Seconds() / (wall.Seconds() * float64(fst.PeakWorkers))
	}

	var firstErr error
	for ii, it := range c.Items {
		sets := make([]*CurveSet, len(c.Strategies))
		for si, name := range c.Strategies {
			cs, err := aggregate(ctx, it.Problem.Name(), name, it.Scale, results[ii][si])
			sets[si] = cs
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("experiment: %s/%s: %w", it.Problem.Name(), name, err)
			}
		}
		res.Curves[it.Problem.Name()] = sets
	}
	return res, firstErr
}
