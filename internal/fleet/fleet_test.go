package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/space"
)

// testConfig shrinks the lease timings so expiry paths run in
// milliseconds.
func testConfig() Config {
	return Config{
		LeaseTTL:    150 * time.Millisecond,
		Heartbeat:   40 * time.Millisecond,
		Poll:        5 * time.Millisecond,
		MaxAttempts: 8,
	}
}

func cellSpec(key string, rep int) TaskSpec {
	return TaskSpec{Key: key, Cell: &CellTask{Problem: "p", Strategy: "s", Rep: rep, Seed: 42}}
}

func mustSubmit(t *testing.T, c *Coordinator, specs []TaskSpec) Handle {
	t.Helper()
	job, _, err := c.SubmitTasks("", specs)
	if err != nil {
		t.Fatalf("SubmitTasks: %v", err)
	}
	return job
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	c := New(testConfig())
	defer c.Close()

	job := mustSubmit(t, c, []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)})
	id, params, err := c.Register("unit")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if params.LeaseTTL != 150*time.Millisecond {
		t.Errorf("advertised TTL = %v", params.LeaseTTL)
	}

	for i := 0; i < 2; i++ {
		spec, err := c.LeaseWait(context.Background(), id, 0)
		if err != nil || spec == nil {
			t.Fatalf("Lease %d: spec=%v err=%v", i, spec, err)
		}
		payload := []byte(fmt.Sprintf(`{"rmse":[%d]}`, i))
		status, err := c.Complete(id, spec.Key, payload, Checksum(payload), time.Millisecond)
		if err != nil || status != StatusAccepted {
			t.Fatalf("Complete %s: status=%s err=%v", spec.Key, status, err)
		}
	}
	// Queue drained.
	if spec, err := c.LeaseWait(context.Background(), id, 0); err != nil || spec != nil {
		t.Fatalf("Lease on empty queue: spec=%v err=%v", spec, err)
	}

	results, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(results) != 2 || results[0].Key != "a" || results[1].Key != "b" {
		t.Fatalf("results out of order: %+v", results)
	}
	for _, r := range results {
		if r.Failed != "" || r.Attempts != 1 || len(r.Payload) == 0 {
			t.Errorf("result %s: %+v", r.Key, r)
		}
	}
	st := c.Stats()
	if st.Completed != 2 || st.Failed != 0 || st.Requeues != 0 {
		t.Errorf("stats: %+v", st)
	}

	// Keys released: the same coordinates can be resubmitted.
	job2 := mustSubmit(t, c, []TaskSpec{cellSpec("a", 0)})
	spec, _ := c.LeaseWait(context.Background(), id, 0)
	if spec == nil || spec.Key != "a" {
		t.Fatalf("resubmitted key not leasable: %v", spec)
	}
	p := []byte(`{}`)
	c.Complete(id, "a", p, Checksum(p), 0)
	if _, err := job2.Wait(context.Background()); err != nil {
		t.Fatalf("Wait 2: %v", err)
	}
}

func TestCoordinatorIdempotentCompletion(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	mustSubmit(t, c, []TaskSpec{cellSpec("a", 0)})
	id, _, _ := c.Register("w")
	spec, _ := c.LeaseWait(context.Background(), id, 0)
	payload := []byte(`{"rmse":[1,2]}`)
	if status, _ := c.Complete(id, spec.Key, payload, Checksum(payload), 0); status != StatusAccepted {
		t.Fatalf("first completion: %s", status)
	}
	if status, _ := c.Complete(id, spec.Key, payload, Checksum(payload), 0); status != StatusDuplicate {
		t.Fatalf("second completion: %s", status)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Duplicates != 1 {
		t.Errorf("stats: completed=%d duplicates=%d", st.Completed, st.Duplicates)
	}
}

func TestCoordinatorCorruptPayloadRequeues(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	mustSubmit(t, c, []TaskSpec{cellSpec("a", 0)})
	id, _, _ := c.Register("w")
	spec, _ := c.LeaseWait(context.Background(), id, 0)
	payload := []byte(`{"rmse":[1]}`)
	if status, _ := c.Complete(id, spec.Key, payload, Checksum(payload)+1, 0); status != StatusCorrupt {
		t.Fatalf("corrupt completion accepted")
	}
	// The lease bounced; the task is leasable again and a clean payload
	// finishes it on attempt two.
	spec2, _ := c.LeaseWait(context.Background(), id, 0)
	if spec2 == nil || spec2.Key != "a" {
		t.Fatalf("task not requeued after corrupt payload: %v", spec2)
	}
	if status, _ := c.Complete(id, "a", payload, Checksum(payload), 0); status != StatusAccepted {
		t.Fatalf("clean completion rejected")
	}
	st := c.Stats()
	if st.Corrupt != 1 || st.Requeues != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCoordinatorLeaseExpiry(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	mustSubmit(t, c, []TaskSpec{cellSpec("a", 0)})
	id1, _, _ := c.Register("silent")
	spec, _ := c.LeaseWait(context.Background(), id1, 0)
	if spec == nil {
		t.Fatal("no lease")
	}
	// id1 never heartbeats: within ~TTL + sweep tick the worker is lost
	// and the task re-queued for id2.
	id2, _, _ := c.Register("alive")
	deadline := time.Now().Add(2 * time.Second)
	var spec2 *TaskSpec
	for time.Now().Before(deadline) {
		if _, err := c.Heartbeat(id2, nil); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		spec2, _ = c.LeaseWait(context.Background(), id2, 0)
		if spec2 != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if spec2 == nil || spec2.Key != "a" {
		t.Fatal("expired lease never re-queued")
	}
	st := c.Stats()
	if st.Expired == 0 || st.Requeues == 0 {
		t.Errorf("stats: %+v", st)
	}
	// The silent worker is gone; its calls 404.
	if _, err := c.Heartbeat(id1, nil); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("silent worker heartbeat: %v", err)
	}
	// But its (stale) checksum-valid completion still ingests: tasks
	// are deterministic, the bytes are the bytes.
	payload := []byte(`{"rmse":[9]}`)
	if status, _ := c.Complete(id1, "a", payload, Checksum(payload), 0); status != StatusAccepted {
		t.Errorf("stale valid completion not accepted")
	}
	// The current lessee's heartbeat now drops the lease.
	drop, err := c.Heartbeat(id2, []string{"a"})
	if err != nil || len(drop) != 1 || drop[0] != "a" {
		t.Errorf("drop = %v, err = %v", drop, err)
	}
}

func TestCoordinatorMaxAttemptsExhausted(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 2
	c := New(cfg)
	defer c.Close()
	job := mustSubmit(t, c, []TaskSpec{cellSpec("a", 0)})
	id, _, _ := c.Register("w")
	for i := 0; i < 2; i++ {
		spec, _ := c.LeaseWait(context.Background(), id, 0)
		if spec == nil {
			t.Fatalf("attempt %d: no lease", i)
		}
		c.Fail(id, spec.Key, "boom")
	}
	results, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if results[0].Failed == "" || !strings.Contains(results[0].Failed, "attempts exhausted") {
		t.Errorf("task not failed permanently: %+v", results[0])
	}
	if results[0].Attempts != 2 {
		t.Errorf("attempts = %d", results[0].Attempts)
	}
}

func TestCoordinatorSubmitValidation(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	if _, _, err := c.SubmitTasks("", []TaskSpec{{Key: ""}}); err == nil {
		t.Error("empty key accepted")
	}
	if _, _, err := c.SubmitTasks("", []TaskSpec{{Key: "x"}}); err == nil {
		t.Error("bodyless task accepted")
	}
	if _, _, err := c.SubmitTasks("", []TaskSpec{
		{Key: "x", Cell: &CellTask{}, Eval: &EvalTask{}},
	}); err == nil {
		t.Error("two-body task accepted")
	}
	mustSubmit(t, c, []TaskSpec{cellSpec("live", 0)})
	if _, _, err := c.SubmitTasks("", []TaskSpec{cellSpec("live", 0)}); err == nil {
		t.Error("duplicate live key accepted")
	}
}

func TestJobWaitCancel(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	job := mustSubmit(t, c, []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := job.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: %v", err)
	}
	for _, r := range results {
		if r.Failed != "canceled" {
			t.Errorf("result %s: %+v", r.Key, r)
		}
	}
}

// TestCoordinatorCloseKeepsPending: Close leaves pending task state as
// it stands — no result is fabricated for the unfinished task, and the
// job stays attachable — while the waiter sees ErrCoordinatorClosed.
func TestCoordinatorCloseKeepsPending(t *testing.T) {
	c := New(testConfig())
	job, _, err := c.SubmitTasks("kept", []TaskSpec{cellSpec("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	results, err := job.Wait(context.Background())
	if !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("Wait after Close: err = %v, want ErrCoordinatorClosed", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Errorf("ErrCoordinatorClosed does not wrap ErrClosed: %v", err)
	}
	if len(results) != 0 {
		t.Errorf("Close fabricated results for the pending task: %+v", results)
	}
	if _, err := c.Attach("kept"); err != nil {
		t.Errorf("job not attachable after Close: %v", err)
	}
	if _, _, err := c.Register("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close: %v", err)
	}
}

// TestJobWaitShutdownVsContext pins the two interruption channels of
// Wait apart: the submitter's own context error means abort, the
// coordinator shutting down means reattach — conflating them was the
// bug this distinction exists for.
func TestJobWaitShutdownVsContext(t *testing.T) {
	// Context path: a deadline fires while the coordinator is healthy.
	c := New(testConfig())
	job := mustSubmit(t, c, []TaskSpec{cellSpec("ctx", 0)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
		t.Fatalf("ctx-canceled Wait: err = %v, want context.Canceled and not ErrClosed", err)
	}
	c.Close()

	// Shutdown path: Close while a Wait blocks.
	c2 := New(testConfig())
	job2 := mustSubmit(t, c2, []TaskSpec{cellSpec("shut", 0)})
	errc := make(chan error, 1)
	go func() {
		_, err := job2.Wait(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c2.Close()
	if err := <-errc; !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("Wait across Close: err = %v, want ErrCoordinatorClosed", err)
	}

	// A job that finished before the shutdown is not retroactively
	// interrupted: its results are complete and its error nil.
	c3 := New(testConfig())
	job3 := mustSubmit(t, c3, []TaskSpec{cellSpec("fin", 0)})
	id, _, err := c3.Register("w")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := c3.LeaseWait(context.Background(), id, 0)
	if err != nil || spec == nil {
		t.Fatalf("Lease: %v %v", spec, err)
	}
	payload, _ := json.Marshal(map[string]int{"ok": 1})
	if _, err := c3.Complete(id, spec.Key, payload, Checksum(payload), 0); err != nil {
		t.Fatal(err)
	}
	c3.Close()
	results, err := job3.Wait(context.Background())
	if err != nil || len(results) != 1 || results[0].Failed != "" {
		t.Fatalf("finished job across Close: results=%+v err=%v", results, err)
	}
}

func TestChaosInjectorDeterminism(t *testing.T) {
	cfg := chaos.Worker{Seed: 3, CrashRate: 0.2, HangRate: 0.3, PanicRate: 0.1, CorruptRate: 0.4}
	a, b := newChaosInjector(cfg), newChaosInjector(cfg)
	fired := false
	for i := 0; i < 200; i++ {
		da, db := a.draw(), b.draw()
		if da != db {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, da, db)
		}
		if da.crash || da.hang || da.panic_ || da.corrupt {
			fired = true
		}
	}
	if !fired {
		t.Error("no fault ever fired at these rates")
	}
}

// echoRunner returns deterministic payloads derived from the task spec,
// standing in for the experiment layer.
type echoRunner struct{}

func (echoRunner) RunCell(ctx context.Context, t *CellTask) *CellResult {
	return &CellResult{RMSE: []float64{float64(t.Rep) + 0.5}, CC: []float64{float64(t.Rep)}}
}

func (echoRunner) RunEval(ctx context.Context, t *EvalTask) *EvalResult {
	r, err := rng.FromState(t.State)
	if err != nil {
		return &EvalResult{ErrKind: ErrKindError, Err: err.Error()}
	}
	ys := make([]float64, len(t.Configs))
	for i, cfg := range t.Configs {
		ys[i] = r.Float64() + float64(cfg[0])
	}
	return &EvalResult{Ys: ys, State: r.State()}
}

func startWorker(t *testing.T, w *Worker) chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(context.Background()) }()
	return errCh
}

func runWorker(t *testing.T, w *Worker, ctx context.Context) chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(ctx) }()
	return errCh
}

func waitWorker(t *testing.T, errCh chan error, want error) {
	t.Helper()
	select {
	case err := <-errCh:
		if !errors.Is(err, want) && (want != nil || err != nil) {
			t.Errorf("worker exit = %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit")
	}
}

func TestWorkerEndToEnd(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Coordinator: srv.URL, Name: "e2e", Runner: echoRunner{}, Logf: t.Logf}
	errCh := runWorker(t, w, ctx)

	specs := make([]TaskSpec, 5)
	for i := range specs {
		specs[i] = cellSpec(fmt.Sprintf("cell/p/s/%d", i), i)
	}
	job := mustSubmit(t, c, specs)
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	results, err := job.Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, r := range results {
		if r.Failed != "" {
			t.Fatalf("task %s failed: %s", r.Key, r.Failed)
		}
		var res CellResult
		if err := json.Unmarshal(r.Payload, &res); err != nil {
			t.Fatalf("task %s payload: %v", r.Key, err)
		}
		if len(res.RMSE) != 1 || res.RMSE[0] != float64(i)+0.5 {
			t.Errorf("task %s: rmse = %v", r.Key, res.RMSE)
		}
	}

	// Graceful drain: cancel → worker deregisters and exits nil.
	cancel()
	waitWorker(t, errCh, nil)
	st := c.Stats()
	if st.Workers != 0 || st.Completed != 5 {
		t.Errorf("stats after drain: %+v", st)
	}
}

func TestWorkerKilledMidLeaseRecovers(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	victim := &Worker{Coordinator: srv.URL, Name: "victim", Runner: echoRunner{}, Logf: t.Logf}
	var killOnce sync.Once
	victim.OnLease = func(key string) {
		killOnce.Do(func() {
			victim.Kill()
			// Block this execution until the kill lands so no result
			// escapes before death.
			time.Sleep(50 * time.Millisecond)
		})
	}
	victimCh := startWorker(t, victim)

	job := mustSubmit(t, c, []TaskSpec{cellSpec("cell/p/s/0", 0)})
	waitWorker(t, victimCh, ErrKilled)

	// The abandoned lease expires and a healthy worker finishes the task.
	ctx, cancel := context.WithCancel(context.Background())
	healthy := &Worker{Coordinator: srv.URL, Name: "healthy", Runner: echoRunner{}, Logf: t.Logf}
	healthyCh := runWorker(t, healthy, ctx)
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	results, err := job.Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if results[0].Failed != "" {
		t.Fatalf("task failed: %s", results[0].Failed)
	}
	if results[0].Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (kill consumed one)", results[0].Attempts)
	}
	if st := c.Stats(); st.Expired == 0 {
		t.Errorf("no expiry recorded: %+v", st)
	}
	cancel()
	waitWorker(t, healthyCh, nil)
}

// TestWorkerCorruptChaosRecovers pins checksum rejection and recovery
// on a fixed schedule: the always-corrupting worker starts draining the
// moment it is granted its first lease, so it delivers exactly one
// corrupt payload and exits before the honest worker starts. It can
// never win every attempt of a task, whatever the goroutine schedule.
func TestWorkerCorruptChaosRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 10
	c := New(cfg)
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Corrupting worker: every payload has a byte flipped, so the
	// coordinator must reject each one by checksum.
	badCtx, badCancel := context.WithCancel(context.Background())
	defer badCancel()
	bad := &Worker{Coordinator: srv.URL, Name: "bad", Runner: echoRunner{},
		Chaos: chaos.Worker{Seed: 1, CorruptRate: 1}, Logf: t.Logf,
		OnLease: func(string) { badCancel() }}
	badCh := runWorker(t, bad, badCtx)
	job := mustSubmit(t, c, []TaskSpec{cellSpec("cell/p/s/0", 0), cellSpec("cell/p/s/1", 1)})
	waitWorker(t, badCh, nil)
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("after the chaos worker's one lease: %d corrupt payloads rejected, want 1", st.Corrupt)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	good := &Worker{Coordinator: srv.URL, Name: "good", Runner: echoRunner{}, Logf: t.Logf}
	goodCh := runWorker(t, good, ctx)
	wctx, wcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer wcancel()
	results, err := job.Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	for i, r := range results {
		if r.Failed != "" {
			t.Fatalf("task %s failed: %s", r.Key, r.Failed)
		}
		var res CellResult
		if err := json.Unmarshal(r.Payload, &res); err != nil {
			t.Fatalf("payload: %v", err)
		}
		if res.RMSE[0] != float64(i)+0.5 {
			t.Errorf("task %s: rmse = %v", r.Key, res.RMSE)
		}
	}
	if st := c.Stats(); st.Corrupt < 1 {
		t.Errorf("no corrupt payload rejected: %+v", st)
	}
	cancel()
	waitWorker(t, goodCh, nil)
}

func TestWorkerPanicChaosReported(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 2
	c := New(cfg)
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL, Name: "panicky", Runner: echoRunner{},
		Chaos: chaos.Worker{Seed: 1, PanicRate: 1}, Logf: t.Logf}
	errCh := runWorker(t, w, ctx)

	job := mustSubmit(t, c, []TaskSpec{cellSpec("cell/p/s/0", 0)})
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	results, err := job.Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if results[0].Failed == "" || !strings.Contains(results[0].Failed, "panic") {
		t.Errorf("panicking worker did not fail the task: %+v", results[0])
	}
	cancel()
	waitWorker(t, errCh, nil)
}

// statefulFake is a minimal core.StatefulEvaluator whose measurements
// come from an owned generator, mirroring bench evaluators.
type statefulFake struct{ r *rng.RNG }

func (f *statefulFake) Evaluate(ctx context.Context, cfg space.Config) (float64, error) {
	return f.r.Float64() + float64(cfg[0]), nil
}
func (f *statefulFake) EvaluatorState() rng.State { return f.r.State() }
func (f *statefulFake) RestoreEvaluatorState(st rng.State) error {
	r, err := rng.FromState(st)
	if err != nil {
		return err
	}
	f.r = r
	return nil
}

func TestRemoteEvaluatorMatchesLocal(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL, Runner: echoRunner{}, Logf: t.Logf}
	errCh := runWorker(t, w, ctx)

	local := &statefulFake{r: rng.New(7)}
	mirror := &statefulFake{r: rng.New(7)}
	remote, err := NewRemoteEvaluator(c, "p", mirror)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := []space.Config{{1, 0}, {2, 0}, {3, 0}}
	labels, err := remote.EvaluateBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("EvaluateBatch: %v", err)
	}
	for i, cfg := range cfgs {
		want, _ := local.Evaluate(context.Background(), cfg)
		if labels[i].Y != want {
			t.Errorf("config %v: remote %v, local %v", cfg, labels[i].Y, want)
		}
	}
	// The mirror's stream advanced exactly as far as the local one: the
	// next measurement agrees no matter where it runs.
	yr, _ := mirror.Evaluate(context.Background(), space.Config{4, 0})
	yl, _ := local.Evaluate(context.Background(), space.Config{4, 0})
	if yr != yl {
		t.Errorf("stream diverged after remote batch: %v vs %v", yr, yl)
	}
	cancel()
	waitWorker(t, errCh, nil)

	if _, err := NewRemoteEvaluator(c, "p", core.EvaluatorFunc(func(ctx context.Context, cfg space.Config) (float64, error) {
		return 0, nil
	})); err == nil {
		t.Error("stateless evaluator accepted")
	}
}

func TestChecksum(t *testing.T) {
	a := Checksum([]byte(`{"x":1}`))
	if a != Checksum([]byte(`{"x":1}`)) {
		t.Error("checksum not deterministic")
	}
	if a == Checksum([]byte(`{"x":2}`)) {
		t.Error("checksum collision on differing payloads")
	}
}
