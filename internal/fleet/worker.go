package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/rng"
)

// Runner executes leased tasks. The fleet package defines the
// transport and the lease protocol; what a cell or an evaluation
// actually does is injected by the experiment layer (see
// experiment.NewFleetRunner), keeping the dependency arrow pointing
// one way.
type Runner interface {
	// RunCell executes one campaign cell. Implementations must return
	// a result whose bytes depend only on the task spec (and report
	// cancellation via ErrKindCanceled), so re-executions after a
	// lease bounce are bit-identical.
	RunCell(ctx context.Context, t *CellTask) *CellResult

	// RunEval measures the task's configurations in order from the
	// carried generator state.
	RunEval(ctx context.Context, t *EvalTask) *EvalResult
}

// ErrKilled is returned by Worker.Run after Kill: the worker died
// abruptly, abandoning its leases. It wraps context.Canceled so the
// cli exit-code contract classifies it as an interrupt.
var ErrKilled = fmt.Errorf("fleet: worker killed: %w", context.Canceled)

// Worker is one evaluator process: it registers with a coordinator,
// leases tasks, heartbeats while executing, and reports results (or
// failures) back. Cancelling Run's context drains gracefully — no new
// leases, in-flight tasks finish within DrainTimeout, then the worker
// deregisters. Kill abandons everything mid-lease, the crash the
// coordinator's lease expiry exists to absorb.
type Worker struct {
	// Coordinator is the base URL, e.g. "http://127.0.0.1:9090".
	Coordinator string

	// Name labels the worker in coordinator logs; default "evald".
	Name string

	// Runner executes the leased tasks. Required.
	Runner Runner

	// Chaos injects process-level faults for fleet drills and the
	// equivalence gates. Zero value injects nothing.
	Chaos chaos.Worker

	// Slots is the number of concurrent leases; <= 0 means 1.
	Slots int

	// DrainTimeout bounds the graceful drain; <= 0 defaults to 30s.
	// Past it, in-flight tasks are cancelled and abandoned.
	DrainTimeout time.Duration

	// Client overrides the HTTP client (tests inject short timeouts).
	Client *http.Client

	// Logf, when set, receives worker events.
	Logf func(format string, args ...interface{})

	// OnLease, when set, is called with each leased task key before
	// execution — a test hook for killing a worker mid-lease.
	OnLease func(key string)

	initOnce sync.Once
	inj      *chaosInjector
	killCh   chan struct{}
	killOnce sync.Once

	mu          sync.Mutex
	leases      map[string]context.CancelFunc
	frozenUntil time.Time
}

func (w *Worker) init() {
	w.initOnce.Do(func() {
		w.killCh = make(chan struct{})
		w.leases = make(map[string]context.CancelFunc)
		if w.Chaos.Active() {
			w.inj = newChaosInjector(w.Chaos)
		}
	})
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) name() string {
	if w.Name == "" {
		return "evald"
	}
	return w.Name
}

func (w *Worker) slots() int {
	if w.Slots <= 0 {
		return 1
	}
	return w.Slots
}

func (w *Worker) drainTimeout() time.Duration {
	if w.DrainTimeout <= 0 {
		return 30 * time.Second
	}
	return w.DrainTimeout
}

// Kill makes the worker die on the spot: heartbeats stop, in-flight
// executions are cancelled and never reported, Run returns ErrKilled.
// The coordinator recovers the abandoned leases by expiry.
func (w *Worker) Kill() {
	w.init()
	w.killOnce.Do(func() { close(w.killCh) })
}

func (w *Worker) killed() bool {
	select {
	case <-w.killCh:
		return true
	default:
		return false
	}
}

// freeze stops the whole worker — heartbeats included — until now+d,
// modeling a frozen machine rather than a slow evaluation.
func (w *Worker) freeze(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	until := time.Now().Add(d)
	if until.After(w.frozenUntil) {
		w.frozenUntil = until
	}
}

func (w *Worker) frozen() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Now().Before(w.frozenUntil)
}

func (w *Worker) leaseKeys() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	keys := make([]string, 0, len(w.leases))
	for k := range w.leases {
		keys = append(keys, k)
	}
	return keys
}

func (w *Worker) cancelLease(key string) {
	w.mu.Lock()
	cancel := w.leases[key]
	w.mu.Unlock()
	if cancel != nil {
		w.logf("fleet: abandoning dropped lease %s", key)
		cancel()
	}
}

// Run is the worker's lifetime: register (retrying while the
// coordinator is unreachable, so a resident worker survives
// coordinator restarts), serve leases, re-register when the
// coordinator forgot us, drain on cancellation. It returns nil after
// a clean drain, ErrKilled after Kill, and a context-wrapping error
// when the drain exceeded its budget — matching the cli exit-code
// contract (0 / 130).
func (w *Worker) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if w.Runner == nil {
		return errors.New("fleet: worker has no runner")
	}
	w.init()

	// hardCtx governs in-flight executions: it outlives ctx so a drain
	// can finish its leases, and dies on Kill or drain timeout.
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	var forced atomic.Bool
	go func() {
		select {
		case <-hardCtx.Done():
			return
		case <-w.killCh:
			hardCancel()
			return
		case <-ctx.Done():
		}
		t := time.NewTimer(w.drainTimeout())
		defer t.Stop()
		select {
		case <-hardCtx.Done():
		case <-w.killCh:
			hardCancel()
		case <-t.C:
			forced.Store(true)
			w.logf("fleet: drain exceeded %v, abandoning in-flight leases", w.drainTimeout())
			hardCancel()
		}
	}()

	for {
		id, params, err := w.register(ctx)
		if err != nil {
			if w.killed() {
				return ErrKilled
			}
			// Shutdown while idle and unregistered: a clean exit.
			return nil
		}
		again := w.serve(ctx, hardCtx, id, params)
		if again {
			continue
		}
		if w.killed() {
			return ErrKilled
		}
		if forced.Load() {
			return fmt.Errorf("fleet: drain exceeded %v: %w", w.drainTimeout(), context.Canceled)
		}
		return nil
	}
}

// registerBackoff schedules a worker's re-registration retries: capped
// exponential with multiplicative jitter drawn from a generator seeded
// by the worker's name. When a restarted coordinator comes back, every
// resident worker notices within the same heartbeat window — without
// jitter they would all retry in lockstep forever (the retry period is
// deterministic), hammering the recovering coordinator as a thundering
// herd. Seeding from the name keeps each worker's schedule unique
// across the fleet yet reproducible in tests.
type registerBackoff struct {
	r    *rng.RNG
	next time.Duration
	max  time.Duration
}

func newRegisterBackoff(name string) *registerBackoff {
	return &registerBackoff{
		r:    rng.New(Checksum([]byte(name))),
		next: 50 * time.Millisecond,
		max:  2 * time.Second,
	}
}

// delay returns the next wait: the current exponential step scaled
// into [0.5x, 1.5x).
func (b *registerBackoff) delay() time.Duration {
	d := time.Duration(float64(b.next) * b.r.Uniform(0.5, 1.5))
	b.next *= 2
	if b.next > b.max {
		b.next = b.max
	}
	return d
}

// register retries until admitted, ctx cancelled, or killed.
func (w *Worker) register(ctx context.Context) (string, Config, error) {
	bo := newRegisterBackoff(w.name())
	warned := false
	for {
		if w.killed() {
			return "", Config{}, ErrKilled
		}
		if err := ctx.Err(); err != nil {
			return "", Config{}, err
		}
		var resp RegisterResponse
		status, err := call(ctx, w.Client, w.Coordinator, http.MethodPost, "/fleet/workers", RegisterRequest{Name: w.name()}, &resp)
		if err == nil {
			w.logf("fleet: registered as %s (ttl %dms, heartbeat %dms)",
				resp.Worker, resp.LeaseTTLMS, resp.HeartbeatMS)
			return resp.Worker, Config{
				LeaseTTL:  time.Duration(resp.LeaseTTLMS) * time.Millisecond,
				Heartbeat: time.Duration(resp.HeartbeatMS) * time.Millisecond,
				Poll:      time.Duration(resp.PollMS) * time.Millisecond,
			}, nil
		}
		if !warned {
			w.logf("fleet: coordinator unreachable (%v, status %d), retrying", err, status)
			warned = true
		}
		w.sleep(ctx, bo.delay())
	}
}

// serve runs one registration's lease loops until drain or until the
// coordinator forgets the worker (returns true: re-register).
func (w *Worker) serve(ctx context.Context, hardCtx context.Context, id string, params Config) bool {
	// sctx stops leasing, and cuts a held lease request short: on
	// drain (ctx), on Kill, or on a 404 (re-register).
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	go func() {
		select {
		case <-w.killCh:
			scancel()
		case <-sctx.Done():
		}
	}()
	var reregged atomic.Bool
	trigger := func() {
		if reregged.CompareAndSwap(false, true) {
			scancel()
		}
	}

	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(id, params, hbStop, hbDone, trigger)

	var wg sync.WaitGroup
	for i := 0; i < w.slots(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(sctx, hardCtx, id, params, trigger)
		}()
	}
	wg.Wait()
	// Keep heartbeating until the slots drained their in-flight
	// leases, then stop the beat and (on a graceful exit) deregister.
	close(hbStop)
	<-hbDone

	if reregged.Load() && !w.killed() {
		return true
	}
	if !w.killed() {
		_, _ = call(context.Background(), w.Client, w.Coordinator, http.MethodDelete, "/fleet/workers/"+id, nil, nil)
	}
	return false
}

// slotLoop leases and runs tasks until sctx ends. An idle slot parks
// in the coordinator: each lease request asks for a hold of up to Poll
// (wait_ms), which a submit cuts short. The first re-poll after a
// completed task asks for no hold, so a submitter waiting for the
// worker to come back idle sees it at once. A 204 that arrives sooner
// than the hold asked for — a coordinator that predates long-polling
// answers at once — is followed by a sleep for the rest of Poll, which
// keeps the old one-request-per-Poll cadence against such a peer.
func (w *Worker) slotLoop(sctx, hardCtx context.Context, id string, params Config, trigger func()) {
	wait := params.Poll
	for {
		select {
		case <-sctx.Done():
			return
		case <-w.killCh:
			return
		default:
		}
		if w.frozen() {
			w.sleep(sctx, 10*time.Millisecond)
			continue
		}
		start := time.Now()
		spec, status, err := w.lease(sctx, id, wait)
		asked := wait
		wait = params.Poll
		if status == http.StatusNotFound {
			trigger()
			return
		}
		if err != nil {
			// Unreachable, or shutting down (503): poll until it is back.
			w.sleep(sctx, params.Poll)
			continue
		}
		if spec == nil {
			w.sleep(sctx, asked-time.Since(start))
			continue
		}
		w.execute(hardCtx, id, spec, params)
		if w.killed() {
			return
		}
		wait = 0
	}
}

// execute runs one leased task through the chaos injector and the
// runner, then reports the outcome. A cancelled task context (the
// lease was dropped, the worker killed, the drain forced) abandons the
// work silently: the coordinator has already re-queued or failed it.
func (w *Worker) execute(hardCtx context.Context, id string, spec *TaskSpec, params Config) {
	start := time.Now()
	tctx, cancel := context.WithCancel(hardCtx)
	w.mu.Lock()
	w.leases[spec.Key] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.leases, spec.Key)
		w.mu.Unlock()
		cancel()
	}()
	if w.OnLease != nil {
		w.OnLease(spec.Key)
	}

	var d chaosDraw
	if w.inj != nil {
		d = w.inj.draw()
	}
	if d.crash {
		w.logf("fleet: chaos crash on lease %s", spec.Key)
		w.Kill()
		return
	}
	if d.hang {
		dur := w.Chaos.HangFor
		if dur <= 0 {
			dur = 3 * params.LeaseTTL
		}
		w.logf("fleet: chaos hang for %v on lease %s", dur, spec.Key)
		w.freeze(dur)
		if !w.sleep(tctx, dur) {
			return
		}
	}

	payload, err := w.runTask(tctx, spec, d.panic_)
	if tctx.Err() != nil {
		return
	}
	if err != nil {
		w.report("/fleet/fail", FailRequest{Worker: id, Key: spec.Key, Error: err.Error()}, nil)
		return
	}
	sum := Checksum(payload)
	if d.corrupt && len(payload) > 0 {
		w.logf("fleet: chaos corrupting payload for %s", spec.Key)
		payload = append([]byte(nil), payload...)
		payload[len(payload)/2] ^= 0x20
	}
	var resp CompleteResponse
	switch w.report("/fleet/complete", CompleteRequest{Worker: id, Key: spec.Key, Payload: payload, Sum: sum,
		ElapsedMS: time.Since(start).Milliseconds()}, &resp) {
	case 0:
		w.logf("fleet: could not deliver result for %s; leaving it to lease expiry", spec.Key)
	case http.StatusUnprocessableEntity:
		w.logf("fleet: coordinator rejected payload for %s as corrupt", spec.Key)
	default:
		if resp.Status == StatusDuplicate {
			w.logf("fleet: completion for %s was a duplicate", spec.Key)
		}
	}
}

// runTask executes the task body, recovering panics — injected ones
// and real runner bugs — into a reportable failure.
func (w *Worker) runTask(ctx context.Context, spec *TaskSpec, injectPanic bool) (payload []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	if injectPanic {
		panic("fleet chaos: injected panic")
	}
	var res interface{}
	switch {
	case spec.Cell != nil:
		res = w.Runner.RunCell(ctx, spec.Cell)
	case spec.Eval != nil:
		res = w.Runner.RunEval(ctx, spec.Eval)
	default:
		return nil, fmt.Errorf("fleet: task %s carries no body", spec.Key)
	}
	return json.Marshal(res)
}

func (w *Worker) heartbeatLoop(id string, params Config, stop, done chan struct{}, trigger func()) {
	defer close(done)
	tk := time.NewTicker(params.Heartbeat)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-w.killCh:
			return
		case <-tk.C:
			if w.frozen() {
				continue
			}
			var resp HeartbeatResponse
			status, err := call(context.Background(), w.Client, w.Coordinator, http.MethodPost, "/fleet/heartbeat",
				HeartbeatRequest{Worker: id, Keys: w.leaseKeys()}, &resp)
			if status == http.StatusNotFound {
				trigger()
				return
			}
			if err != nil {
				continue
			}
			for _, key := range resp.Drop {
				w.cancelLease(key)
			}
		}
	}
}

// lease asks for one task, letting an idle coordinator hold the
// request for up to wait. ctx cuts a held request short.
func (w *Worker) lease(ctx context.Context, id string, wait time.Duration) (*TaskSpec, int, error) {
	path := "/fleet/lease"
	if wait > 0 {
		path += "?wait_ms=" + strconv.FormatInt(wait.Milliseconds(), 10)
	}
	var resp LeaseResponse
	status, err := call(ctx, w.Client, w.Coordinator, http.MethodPost, path, LeaseRequest{Worker: id}, &resp)
	return resp.Task, status, err
}

// report posts a failure or a completion, reposting only while no HTTP
// answer arrives; it returns the answer's status, or 0 when delivery
// kept failing and the lease is left to expire so the task re-runs
// elsewhere.
func (w *Worker) report(path string, req, out interface{}) int {
	for attempt := 0; attempt < 3; attempt++ {
		if status, _ := call(context.Background(), w.Client, w.Coordinator, http.MethodPost, path, req, out); status != 0 {
			return status
		}
		if !w.sleep(context.Background(), 100*time.Millisecond) {
			break
		}
	}
	return 0
}

// sleep waits d or until ctx ends or the worker is killed; it returns
// false when cut short.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-w.killCh:
		return false
	case <-t.C:
		return true
	}
}
