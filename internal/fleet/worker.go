package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	Chaos WorkerChaos

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

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
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
		status, err := w.post("/fleet/workers", RegisterRequest{Name: w.name()}, &resp)
		if err == nil && status == http.StatusCreated {
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
		_, _ = w.post(fmt.Sprintf("/fleet/workers/%s", id), nil, nil)
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
		if err != nil {
			w.sleep(sctx, params.Poll)
			continue
		}
		if status == http.StatusNotFound {
			trigger()
			return
		}
		if spec == nil {
			if status == http.StatusServiceUnavailable {
				// Coordinator shutting down; poll until it vanishes.
				w.sleep(sctx, params.Poll)
				continue
			}
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
		if !w.sleepHard(tctx, dur) {
			return
		}
	}

	payload, err := w.runTask(tctx, spec, d.panic_)
	if tctx.Err() != nil {
		return
	}
	if err != nil {
		w.postFail(id, spec.Key, err.Error())
		return
	}
	sum := Checksum(payload)
	if d.corrupt && len(payload) > 0 {
		w.logf("fleet: chaos corrupting payload for %s", spec.Key)
		payload = append([]byte(nil), payload...)
		payload[len(payload)/2] ^= 0x20
	}
	w.postComplete(id, spec.Key, payload, sum, time.Since(start))
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
			status, err := w.post("/fleet/heartbeat", HeartbeatRequest{Worker: id, Keys: w.leaseKeys()}, &resp)
			if err != nil {
				continue
			}
			if status == http.StatusNotFound {
				trigger()
				return
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
	status, err := w.postCtx(ctx, path, LeaseRequest{Worker: id}, &resp)
	if err != nil {
		return nil, status, err
	}
	if status == http.StatusOK {
		return resp.Task, status, nil
	}
	return nil, status, nil
}

// postComplete delivers a result, retrying transport errors a few
// times; if delivery keeps failing the lease simply expires and the
// task re-runs elsewhere.
func (w *Worker) postComplete(id, key string, payload []byte, sum uint64, elapsed time.Duration) {
	req := CompleteRequest{Worker: id, Key: key, Payload: payload, Sum: sum, ElapsedMS: elapsed.Milliseconds()}
	for attempt := 0; attempt < 3; attempt++ {
		var resp CompleteResponse
		status, err := w.post("/fleet/complete", req, &resp)
		if err == nil {
			switch resp.Status {
			case StatusCorrupt:
				w.logf("fleet: coordinator rejected payload for %s as corrupt", key)
			case StatusDuplicate:
				w.logf("fleet: completion for %s was a duplicate", key)
			}
			_ = status
			return
		}
		if !w.sleepHardPlain(100 * time.Millisecond) {
			return
		}
	}
	w.logf("fleet: could not deliver result for %s; leaving it to lease expiry", key)
}

func (w *Worker) postFail(id, key, msg string) {
	for attempt := 0; attempt < 3; attempt++ {
		var resp FailResponse
		if _, err := w.post("/fleet/fail", FailRequest{Worker: id, Key: key, Error: msg}, &resp); err == nil {
			return
		}
		if !w.sleepHardPlain(100 * time.Millisecond) {
			return
		}
	}
}

// post sends one JSON request. A nil body sends a DELETE (the only
// bodyless call in the protocol); out may be nil to discard the
// response.
func (w *Worker) post(path string, body, out interface{}) (int, error) {
	return w.postCtx(context.Background(), path, body, out)
}

// postCtx is post with a request context.
func (w *Worker) postCtx(ctx context.Context, path string, body, out interface{}) (int, error) {
	base := strings.TrimRight(w.Coordinator, "/")
	var (
		req *http.Request
		err error
	)
	if body == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodDelete, base+path, nil)
	} else {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+path, &buf)
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return 0, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// sleep waits d or until ctx/kill; returns false when interrupted.
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

// sleepHard waits d or until the task context/kill cuts it short.
func (w *Worker) sleepHard(tctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-tctx.Done():
		return false
	case <-w.killCh:
		return false
	case <-t.C:
		return true
	}
}

// sleepHardPlain waits d or until kill.
func (w *Worker) sleepHardPlain(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.killCh:
		return false
	case <-t.C:
		return true
	}
}
