package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Config tunes the coordinator's failure detection. The defaults suit
// real fleets (seconds-long leases); tests shrink them to milliseconds
// to force lease bounces quickly.
type Config struct {
	// LeaseTTL is how long a lease (and a worker's registration) stays
	// valid without a heartbeat; <= 0 defaults to 15s. A worker that
	// goes silent for a TTL loses its leases back to the queue.
	LeaseTTL time.Duration

	// Heartbeat is the beat interval advertised to workers; <= 0
	// defaults to LeaseTTL/3.
	Heartbeat time.Duration

	// Poll is the idle lease-poll interval advertised to workers; <= 0
	// defaults to 200ms. A worker with nothing to run asks the
	// coordinator to hold its next lease request for up to Poll, so a
	// submit wakes it at once instead of after a sleep.
	Poll time.Duration

	// MaxAttempts bounds lease grants per task before it is failed
	// permanently; <= 0 defaults to 5. Each expiry, worker-reported
	// failure or corrupt completion consumes one attempt.
	MaxAttempts int

	// Journal, when set, is a directory where every state transition is
	// written ahead as a checksummed fsync'd record, so the coordinator
	// can be killed at any instant and restarted with Open: completed
	// payloads survive, in-flight leases bounce back to the queue, and
	// submitters reattach to their jobs by ID. Empty keeps the
	// coordinator purely in-memory (the embedded default).
	Journal string

	// Logf, when set, receives coordinator events (expiries, re-queues,
	// rejected payloads, journal recovery).
	Logf func(format string, args ...interface{})
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return 15 * time.Second
	}
	return c.LeaseTTL
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return c.leaseTTL() / 3
	}
	return c.Heartbeat
}

func (c Config) poll() time.Duration {
	if c.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return c.Poll
}

// holdFor caps a requested hold at the heartbeat interval, so neither
// a parked worker's registration nor a long-polled job status outlives
// one beat.
func (c Config) holdFor(wait time.Duration) time.Duration {
	if hb := c.heartbeat(); wait > hb {
		return hb
	}
	return wait
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 5
	}
	return c.MaxAttempts
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	// Workers is the live worker count; PeakWorkers the maximum seen;
	// Registered the lifetime registration count (a worker that
	// re-registers after an expiry counts again).
	Workers     int   `json:"workers"`
	PeakWorkers int   `json:"peak_workers"`
	Registered  int64 `json:"registered"`

	// Queued and Leased count live tasks by state; Jobs the unreleased
	// jobs holding them.
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Jobs   int `json:"jobs"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`

	// Requeues counts leases that bounced back to the queue (expiry,
	// worker-reported failure, corrupt payload); Expired the subset
	// caused by lease/worker timeouts; Duplicates the completions
	// dropped because the task had already finished; Corrupt the
	// payloads rejected by checksum.
	Requeues   int64 `json:"requeues"`
	Expired    int64 `json:"expired"`
	Duplicates int64 `json:"duplicates"`
	Corrupt    int64 `json:"corrupt"`

	// RecoveredTasks, RecoveredCompleted and RecoveredRequeued describe
	// the journal replay that booted this coordinator: live tasks
	// reconstructed, of which how many came back already completed
	// (their payloads will never be re-evaluated) and how many were
	// mid-lease and conservatively re-queued. All zero on a fresh boot.
	RecoveredTasks     int64 `json:"recovered_tasks,omitempty"`
	RecoveredCompleted int64 `json:"recovered_completed,omitempty"`
	RecoveredRequeued  int64 `json:"recovered_requeued,omitempty"`

	// Busy sums worker-reported execution time over accepted
	// completions — the fleet analogue of campaign.Stats.Busy.
	Busy time.Duration `json:"busy_ns"`
}

// Completion statuses returned to workers.
const (
	StatusAccepted  = "accepted"
	StatusDuplicate = "duplicate"
	StatusCorrupt   = "corrupt"
	StatusUnknown   = "unknown"
	StatusRequeued  = "requeued"
	StatusFailed    = "failed"
	StatusStale     = "stale"
)

// ErrUnknownWorker is returned for a worker id the coordinator does not
// know — never registered, expired, or deregistered. The HTTP layer
// maps it to 404 and workers respond by re-registering.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// ErrClosed is returned once the coordinator has shut down.
var ErrClosed = errors.New("fleet: coordinator closed")

// ErrCoordinatorClosed is returned by Job.Wait when the coordinator
// shut down under the job — distinct from the submitter's own context
// error so callers can tell "my deadline fired" (abort) from "the
// coordinator went away" (reattach once it is back; a journaled
// coordinator keeps the job across the restart). It wraps ErrClosed,
// so errors.Is(err, ErrClosed) also holds.
var ErrCoordinatorClosed = fmt.Errorf("%w under a waiting job", ErrClosed)

// ErrUnknownJob is returned by Attach for a job ID the coordinator does
// not hold — never submitted, or already released to its submitter.
var ErrUnknownJob = errors.New("fleet: unknown job")

type taskState int

const (
	taskQueued taskState = iota
	taskLeased
	taskFinished
)

type task struct {
	spec     TaskSpec
	job      *Job
	state    taskState
	attempts int
	worker   string // current lessee while leased
	deadline time.Time
	res      TaskResult
	released bool // results collected; kept only during journal replay
}

type workerState struct {
	id       string
	name     string
	deadline time.Time
	leases   map[string]*task
}

// Coordinator owns the task queue and the lease table. It is a plain
// library — embed it in any process (cmd/figures and cmd/tune serve it
// next to their own work; tests drive it in-process), run it resident
// via cmd/fleetd, and expose Handler() to the fleet.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	tasks   map[string]*task
	queue   []*task
	jobs    map[string]*Job
	workers map[string]*workerState
	nextID  int64
	jobSeq  int64
	closed  bool
	st      Stats
	jnl     *journal

	// wake is closed (and replaced) whenever a task enters the queue or
	// the coordinator shuts down, releasing every held lease request.
	wake chan struct{}

	recCompleted []string
	recRequeued  []string

	stop chan struct{}
	done chan struct{}
}

// New starts an in-memory coordinator and its lease sweeper. For a
// journaled coordinator use Open; New panics if cfg.Journal is set and
// cannot be opened.
func New(cfg Config) *Coordinator {
	c, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Open starts a coordinator. With cfg.Journal set it first replays the
// journal directory: every *.wal segment is scanned in order, torn
// tails are skipped with a warning, completed tasks come back with
// their checksummed payloads, mid-lease tasks are conservatively
// re-queued, and unreleased jobs become attachable by ID.
func Open(cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		cfg:     cfg,
		tasks:   make(map[string]*task),
		jobs:    make(map[string]*Job),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.Journal != "" {
		rec, err := replayJournal(cfg.Journal, cfg.Logf)
		if err != nil {
			return nil, err
		}
		rec.finish()
		c.adoptRecovery(rec)
		jnl, err := openJournal(cfg.Journal, rec.lastSeg, cfg.Logf)
		if err != nil {
			return nil, err
		}
		c.jnl = jnl
	}
	go c.sweep()
	return c, nil
}

// adoptRecovery installs a journal replay as the coordinator's state.
func (c *Coordinator) adoptRecovery(r *recovery) {
	c.tasks = r.tasks
	c.jobSeq = r.autoSeq
	for id, ts := range r.jobs {
		j := &Job{c: c, id: id, fp: r.jobFPs[id], done: make(chan struct{}), intr: make(chan struct{})}
		for _, t := range ts {
			t.job = j
			j.keys = append(j.keys, t.spec.Key)
			if t.state != taskFinished {
				j.remaining++
			}
		}
		if j.remaining == 0 {
			close(j.done)
		}
		c.jobs[id] = j
	}
	for _, t := range r.order {
		if !t.released && t.state == taskQueued {
			c.queue = append(c.queue, t)
		}
	}
	live := int64(len(c.tasks))
	c.st.Submitted = live
	c.st.Completed = int64(len(r.completed))
	c.st.RecoveredTasks = live
	c.st.RecoveredCompleted = int64(len(r.completed))
	c.st.RecoveredRequeued = int64(len(r.requeued))
	c.recCompleted = r.completed
	c.recRequeued = r.requeued
	if live > 0 {
		c.logf("fleet: journal recovery: %d tasks across %d jobs (%d completed, %d re-queued)",
			live, len(c.jobs), len(r.completed), len(r.requeued))
	}
}

// Close shuts the coordinator down hard: pending tasks fail, waiting
// jobs unblock with ErrCoordinatorClosed, the sweeper exits. This is
// the embedded-coordinator exit — the failures are NOT journaled, so a
// journaled coordinator closed mid-job would resurrect the tasks on
// the next Open; a resident coordinator draining for a restart should
// use Halt instead. Safe to call once.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, t := range c.tasks {
		if t.state != taskFinished {
			t.job.interrupt()
			c.finishLocked(t, TaskResult{Failed: "coordinator closed"})
		}
	}
	c.wakeLocked()
	if c.jnl != nil {
		c.jnl.close()
		c.jnl = nil
	}
	c.mu.Unlock()
	close(c.stop)
	<-c.done
}

// Halt drains the coordinator for a restart: it stops granting leases
// and accepting work, unblocks waiting submitters with
// ErrCoordinatorClosed (their jobs' keys stay held, so a reattach
// after the restart resumes them), closes the journal segment and
// stops the sweeper — leaving the journaled task state exactly as it
// stands for the next Open. Safe to call once; Close after Halt is a
// no-op.
func (c *Coordinator) Halt() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, j := range c.jobs {
		j.interruptIfPending()
	}
	c.wakeLocked()
	if c.jnl != nil {
		c.jnl.close()
		c.jnl = nil
	}
	c.mu.Unlock()
	close(c.stop)
	<-c.done
}

// wakeLocked releases every lease request held on the current wake
// channel; they re-check the queue (or the closed flag) under c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// sweep expires silent workers and overdue leases. The tick is a
// fraction of the TTL so an expiry is detected within ~1.25 TTLs.
func (c *Coordinator) sweep() {
	defer close(c.done)
	tick := c.cfg.leaseTTL() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tk.C:
			c.expire(now)
		}
	}
}

func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if now.After(w.deadline) {
			c.logf("fleet: worker %s (%s) lost: no heartbeat in %v, %d leases re-queued",
				id, w.name, c.cfg.leaseTTL(), len(w.leases))
			for _, t := range w.leases {
				c.st.Expired++
				c.requeueLocked(t, "worker lost")
			}
			delete(c.workers, id)
			continue
		}
		for key, t := range w.leases {
			if now.After(t.deadline) {
				c.logf("fleet: lease %s on worker %s expired", key, id)
				delete(w.leases, key)
				c.st.Expired++
				c.requeueLocked(t, "lease expired")
			}
		}
	}
}

// requeueLocked returns a bounced lease to the queue, or fails the task
// permanently once its attempts are exhausted. Callers must have
// removed the task from its lessee's lease map.
func (c *Coordinator) requeueLocked(t *task, cause string) {
	if t.state != taskLeased {
		return
	}
	if t.attempts >= c.cfg.maxAttempts() {
		msg := fmt.Sprintf("%s; %d attempts exhausted", cause, t.attempts)
		if c.jnl != nil {
			if err := c.jnl.append(journalRecord{Op: opFail, Key: t.spec.Key, Msg: msg, Attempts: t.attempts}); err != nil {
				c.logf("fleet: journaling failure of %s: %v", t.spec.Key, err)
			}
		}
		c.finishLocked(t, TaskResult{Failed: msg})
		return
	}
	t.state = taskQueued
	t.worker = ""
	c.queue = append(c.queue, t)
	c.st.Requeues++
	c.wakeLocked()
}

// finishLocked records a task's terminal result and notifies its job.
func (c *Coordinator) finishLocked(t *task, res TaskResult) {
	if t.state == taskFinished {
		return
	}
	if t.state == taskLeased {
		if w := c.workers[t.worker]; w != nil {
			delete(w.leases, t.spec.Key)
		}
	}
	res.Key = t.spec.Key
	res.Attempts = t.attempts
	t.state = taskFinished
	t.res = res
	if res.Failed != "" {
		c.st.Failed++
	} else {
		c.st.Completed++
		c.st.Busy += res.Elapsed
	}
	t.job.taskDone()
}

// Register admits a worker and returns its id plus the lease timing
// parameters it must honor.
func (c *Coordinator) Register(name string) (string, Config, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", Config{}, ErrClosed
	}
	c.nextID++
	id := fmt.Sprintf("w%d", c.nextID)
	c.workers[id] = &workerState{
		id: id, name: name,
		deadline: time.Now().Add(c.cfg.leaseTTL()),
		leases:   make(map[string]*task),
	}
	c.st.Registered++
	if len(c.workers) > c.st.PeakWorkers {
		c.st.PeakWorkers = len(c.workers)
	}
	c.logf("fleet: worker %s (%s) registered", id, name)
	return id, Config{
		LeaseTTL:  c.cfg.leaseTTL(),
		Heartbeat: c.cfg.heartbeat(),
		Poll:      c.cfg.poll(),
	}, nil
}

// Deregister removes a worker after a graceful drain. Any lease it
// still holds (it should hold none) bounces back to the queue.
func (c *Coordinator) Deregister(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	for _, t := range w.leases {
		c.requeueLocked(t, "worker deregistered")
	}
	delete(c.workers, id)
	c.logf("fleet: worker %s (%s) deregistered", id, w.name)
	return nil
}

// LeaseWait hands the worker the oldest queued task. On an empty queue
// it holds the request for up to wait — capped at the heartbeat
// interval, so a parked worker's registration cannot lapse — and
// answers as soon as a submit or a re-queue puts a task in the queue.
// It answers nil once the hold passes, ctx's error when ctx ends, and
// ErrClosed when the coordinator shuts down; a lease is never granted
// to a request whose ctx is already done, so an abandoned hold leaves
// the task queued with its attempts untouched.
//
// A lease counts one attempt, is journaled before it is granted (so
// replayed attempts still respect MaxAttempts), and must be renewed by
// heartbeat within the TTL.
func (c *Coordinator) LeaseWait(ctx context.Context, workerID string, wait time.Duration) (*TaskSpec, error) {
	wait = c.cfg.holdFor(wait)
	var expired <-chan time.Time
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.workers[workerID]
		if w == nil {
			return nil, ErrUnknownWorker
		}
		spec, err := c.grantLocked(w)
		if spec != nil || err != nil || wait <= 0 {
			return spec, err
		}
		if expired == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			expired = t.C
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		case <-expired:
			wait = 0 // one last look at the queue, then answer empty
		}
		c.mu.Lock()
	}
}

// grantLocked leases the oldest queued task to w, or returns nil when
// the queue is empty. Every call renews w's registration.
func (c *Coordinator) grantLocked(w *workerState) (*TaskSpec, error) {
	now := time.Now()
	w.deadline = now.Add(c.cfg.leaseTTL())
	for len(c.queue) > 0 {
		t := c.queue[0]
		if t.state != taskQueued {
			c.queue = c.queue[1:]
			continue // finished while queued (job canceled)
		}
		if c.jnl != nil {
			if err := c.jnl.append(journalRecord{Op: opLease, Key: t.spec.Key, Worker: w.name}); err != nil {
				return nil, err // task stays queued; the worker polls again
			}
		}
		c.queue = c.queue[1:]
		t.state = taskLeased
		t.attempts++
		t.worker = w.id
		t.deadline = now.Add(c.cfg.leaseTTL())
		w.leases[t.spec.Key] = t
		spec := t.spec
		return &spec, nil
	}
	return nil, nil
}

// Heartbeat renews the worker's registration and the named leases. The
// returned drop list names leases the worker no longer holds —
// expired and re-assigned, or canceled — so it can abandon the
// duplicated work instead of finishing it.
func (c *Coordinator) Heartbeat(workerID string, keys []string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil {
		return nil, ErrUnknownWorker
	}
	now := time.Now()
	w.deadline = now.Add(c.cfg.leaseTTL())
	var drop []string
	for _, key := range keys {
		t := c.tasks[key]
		if t != nil && t.state == taskLeased && t.worker == workerID {
			t.deadline = now.Add(c.cfg.leaseTTL())
			continue
		}
		drop = append(drop, key)
	}
	return drop, nil
}

// Complete ingests one result. Ingestion is idempotent on the task
// key: the first checksum-valid payload finishes the task, later
// completions — a lease that bounced mid-flight and both executions
// reported — are dropped as duplicates, never double-counted. A
// checksum mismatch rejects the payload; if it came from the current
// lessee the lease bounces so another attempt can produce clean bytes.
//
// A valid payload is accepted even from a stale lessee: tasks are
// deterministic, so the bytes are the ones any attempt would produce.
// The accepted payload is journaled (write-ahead) before the task
// finishes; a journal write failure is returned to the worker, which
// reposts — durability is never silently dropped.
func (c *Coordinator) Complete(workerID, key string, payload json.RawMessage, sum uint64, elapsed time.Duration) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[workerID]; w != nil {
		w.deadline = time.Now().Add(c.cfg.leaseTTL())
		delete(w.leases, key)
	}
	t := c.tasks[key]
	if t == nil {
		return StatusUnknown, nil
	}
	if t.state == taskFinished {
		c.st.Duplicates++
		return StatusDuplicate, nil
	}
	if Checksum(payload) != sum {
		c.st.Corrupt++
		c.logf("fleet: task %s: corrupt payload from worker %s rejected", key, workerID)
		if t.state == taskLeased && t.worker == workerID {
			c.requeueLocked(t, "corrupt payload")
		}
		return StatusCorrupt, nil
	}
	if c.jnl != nil {
		rec := journalRecord{
			Op: opComplete, Key: key, Worker: workerID,
			Payload: payload, Sum: sum, ElapsedNS: int64(elapsed),
		}
		if err := c.jnl.append(rec); err != nil {
			return "", err
		}
	}
	if t.state == taskLeased && t.worker != workerID {
		// Stale lessee finished first; the current one will learn via
		// its heartbeat drop list or land here as a duplicate.
		if w := c.workers[t.worker]; w != nil {
			delete(w.leases, key)
		}
	}
	c.finishLocked(t, TaskResult{Payload: payload, Worker: workerID, Elapsed: elapsed})
	return StatusAccepted, nil
}

// Fail records a worker-reported execution failure (an injected or
// real panic in the runner). The lease bounces; attempts exhausted
// fail the task permanently.
func (c *Coordinator) Fail(workerID, key, msg string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[workerID]; w != nil {
		w.deadline = time.Now().Add(c.cfg.leaseTTL())
		delete(w.leases, key)
	}
	t := c.tasks[key]
	if t == nil || t.state == taskFinished {
		return StatusStale, nil
	}
	if t.state == taskLeased && t.worker != workerID {
		return StatusStale, nil
	}
	c.logf("fleet: task %s failed on worker %s: %s", key, workerID, msg)
	c.requeueLocked(t, fmt.Sprintf("worker error: %s", msg))
	if t.state == taskFinished {
		return StatusFailed, nil
	}
	return StatusRequeued, nil
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Workers = len(c.workers)
	st.Jobs = len(c.jobs)
	for _, t := range c.tasks {
		switch t.state {
		case taskQueued:
			st.Queued++
		case taskLeased:
			st.Leased++
		}
	}
	return st
}

// Recovered reports the task keys the boot-time journal replay
// restored: completed keys whose payloads will never be re-evaluated,
// and keys that were mid-lease at the crash and were re-queued. Both
// sorted; both empty on a fresh boot. The failover gate asserts no
// completed key is ever executed again.
func (c *Coordinator) Recovered() (completed, requeued []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	completed = append([]string(nil), c.recCompleted...)
	requeued = append([]string(nil), c.recRequeued...)
	sort.Strings(completed)
	sort.Strings(requeued)
	return completed, requeued
}

// Job tracks one submission's tasks until they all finish. A job is
// held by the coordinator — surviving restarts when journaled — until
// its results are collected by a successful Wait; until then any
// process that knows the ID can Attach and Wait on it.
type Job struct {
	c           *Coordinator
	id          string
	fp          uint64 // fingerprint of the submitted specs, for attach checks
	keys        []string
	remaining   int
	mu          sync.Mutex
	done        chan struct{}
	intr        chan struct{}
	interrupted bool
	released    bool
}

// ID returns the job's identifier, usable with Attach after a
// submitter restart.
func (j *Job) ID() string { return j.id }

func (j *Job) taskDone() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.remaining--
	if j.remaining == 0 {
		close(j.done)
	}
}

// interrupt flags the job as shut down under its waiter.
func (j *Job) interrupt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.interrupted {
		j.interrupted = true
		close(j.intr)
	}
}

// interruptIfPending interrupts only jobs with unfinished tasks — a
// job that completed before the shutdown delivers its results with a
// nil error.
func (j *Job) interruptIfPending() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.remaining > 0 && !j.interrupted {
		j.interrupted = true
		close(j.intr)
	}
}

// hold blocks for up to wait — capped at the heartbeat interval, like a
// held lease — or until the job finishes, the coordinator shuts down
// under it, or ctx ends: the server half of a long-polled job status.
func (j *Job) hold(ctx context.Context, wait time.Duration) {
	wait = j.c.cfg.holdFor(wait)
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-j.done:
	case <-j.intr:
	case <-ctx.Done():
	case <-t.C:
	}
}

// progress reports the job's size and unfinished-task count.
func (j *Job) progress() (total, remaining int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.keys), j.remaining
}

func (j *Job) wasInterrupted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.interrupted
}

// SubmitTasks enqueues specs as one job, FIFO behind whatever is
// already queued; it implements Submitter on the in-process
// coordinator. An empty id names the job job-N, and with no specs
// returns a job that is already done. A non-empty id is the durable
// handle a submitter reattaches by after its own restart, so the call
// is submit-or-attach: when a live job already holds id (typically this
// submitter's previous incarnation submitted it before dying), the
// specs fingerprint is verified and that job returned with
// attached=true. A restarted submitter re-derives its specs
// deterministically and calls SubmitTasks with the same id.
//
// Keys must be unique among the coordinator's live tasks; a job's keys
// are released when its Wait returns, so re-submitting the same
// coordinates later (a re-run campaign) is fine.
func (c *Coordinator) SubmitTasks(id string, specs []TaskSpec) (Handle, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == "" && len(specs) == 0 {
		j := &Job{c: c, done: make(chan struct{}), intr: make(chan struct{})}
		close(j.done)
		return j, false, nil
	}
	if j := c.jobs[id]; j != nil {
		if j.fp != specsFingerprint(specs) {
			return nil, false, fmt.Errorf("fleet: job %q exists with different specs", id)
		}
		return j, true, nil
	}
	if c.closed {
		return nil, false, ErrClosed
	}
	if id == "" {
		c.jobSeq++
		id = fmt.Sprintf("job-%d", c.jobSeq)
	}
	j, err := c.submitLocked(id, specs)
	if err != nil {
		return nil, false, err
	}
	return j, false, nil
}

// Attach returns the live job with the given ID, or ErrUnknownJob —
// which a submitter should read as "released or never submitted".
func (c *Coordinator) Attach(id string) (*Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// submitLocked validates, journals and enqueues one job.
func (c *Coordinator) submitLocked(id string, specs []TaskSpec) (*Job, error) {
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.tasks[specs[i].Key]; dup {
			return nil, fmt.Errorf("fleet: duplicate task key %q", specs[i].Key)
		}
	}
	if c.jnl != nil {
		if err := c.jnl.append(journalRecord{Op: opSubmit, Job: id, Specs: specs}); err != nil {
			return nil, err
		}
	}
	j := &Job{
		c: c, id: id, fp: specsFingerprint(specs),
		remaining: len(specs),
		done:      make(chan struct{}),
		intr:      make(chan struct{}),
	}
	for i := range specs {
		t := &task{spec: specs[i], job: j, state: taskQueued}
		c.tasks[t.spec.Key] = t
		c.queue = append(c.queue, t)
		j.keys = append(j.keys, t.spec.Key)
	}
	c.jobs[id] = j
	c.st.Submitted += int64(len(specs))
	c.wakeLocked()
	return j, nil
}

// Wait blocks until every task of the job finished, then returns the
// results in submission order and releases the job's keys.
//
// Two interruptions are distinguished. Cancelling ctx fails the job's
// unfinished tasks ("canceled"), drops their leases at the workers'
// next heartbeat, releases the keys and returns the partial results
// with ctx's error — the submitter gave up. The coordinator shutting
// down under the job instead returns ErrCoordinatorClosed with the
// results finished so far and does NOT release the keys: on a
// journaled coordinator the job survives the restart, and the
// submitter resumes it with Attach or SubmitTasks.
func (j *Job) Wait(ctx context.Context) ([]TaskResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var werr error
	select {
	case <-j.done:
		if j.wasInterrupted() {
			// Close failed the pending tasks under us.
			werr = ErrCoordinatorClosed
		}
	case <-j.intr:
		werr = ErrCoordinatorClosed
	case <-ctx.Done():
		werr = ctx.Err()
		j.cancel()
	}
	release := !errors.Is(werr, ErrClosed)
	return j.collect(release), werr
}

// cancel fails every unfinished task of the job.
func (j *Job) cancel() {
	c := j.c
	c.mu.Lock()
	defer c.mu.Unlock()
	canceled := false
	for _, key := range j.keys {
		if t := c.tasks[key]; t != nil && t.state != taskFinished {
			c.finishLocked(t, TaskResult{Failed: "canceled"})
			canceled = true
		}
	}
	if canceled && c.jnl != nil && j.id != "" {
		if err := c.jnl.append(journalRecord{Op: opCancel, Job: j.id}); err != nil {
			c.logf("fleet: journaling cancel of %s: %v", j.id, err)
		}
	}
}

// collect gathers the finished results and, when release is set,
// releases the job's keys, journals the release, and compacts the
// journal once the coordinator is empty.
func (j *Job) collect(release bool) []TaskResult {
	c := j.c
	c.mu.Lock()
	defer c.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]TaskResult, 0, len(j.keys))
	for _, key := range j.keys {
		t := c.tasks[key]
		if t == nil || t.state != taskFinished {
			continue // released by an earlier Wait, or still pending (Halt)
		}
		out = append(out, t.res)
		if release && !j.released {
			delete(c.tasks, key)
		}
	}
	if release && !j.released {
		j.released = true
		if j.id != "" && c.jobs[j.id] == j {
			delete(c.jobs, j.id)
			if c.jnl != nil {
				if err := c.jnl.append(journalRecord{Op: opRelease, Job: j.id}); err != nil {
					c.logf("fleet: journaling release of %s: %v", j.id, err)
				}
			}
		}
		if c.jnl != nil && len(c.tasks) == 0 && len(c.jobs) == 0 {
			c.jnl.compact()
		}
	}
	return out
}
