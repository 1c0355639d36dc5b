package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runstate"
)

func journalConfig(dir string) Config {
	cfg := testConfig()
	cfg.Journal = dir
	return cfg
}

// copyDir snapshots a journal directory — the disk image a SIGKILL'd
// coordinator would leave behind, taken while the victim still runs.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func leaseKey(t *testing.T, c *Coordinator, worker string) string {
	t.Helper()
	spec, err := c.LeaseWait(context.Background(), worker, 0)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if spec == nil {
		t.Fatal("Lease: empty queue")
	}
	return spec.Key
}

func completeKey(t *testing.T, c *Coordinator, worker, key string, payload []byte) {
	t.Helper()
	status, err := c.Complete(worker, key, payload, Checksum(payload), time.Millisecond)
	if err != nil || status != StatusAccepted {
		t.Fatalf("Complete(%s): status=%s err=%v", key, status, err)
	}
}

// TestJournalCrashRecovery is the tentpole's core property: a
// coordinator killed mid-job (simulated by snapshotting its journal
// directory while it runs) restarts with completed payloads intact and
// never re-issued, the mid-lease task re-queued, and the job
// attachable — finishing to the same results the uncrashed run would
// have produced.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live")
	crash := filepath.Join(dir, "crash")

	c, err := Open(journalConfig(live))
	if err != nil {
		t.Fatal(err)
	}
	specs := []TaskSpec{cellSpec("a", 0), cellSpec("b", 1), cellSpec("c", 2), cellSpec("d", 3)}
	if _, _, err := c.SubmitTasks("job-x", specs); err != nil {
		t.Fatal(err)
	}
	w, _, err := c.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
	doneKey := leaseKey(t, c, w)
	donePayload, _ := json.Marshal(map[string]string{"from": "before-crash"})
	completeKey(t, c, w, doneKey, donePayload)
	midKey := leaseKey(t, c, w) // leased, never completed: in flight at the kill

	copyDir(t, live, crash) // the SIGKILL disk image
	c.Close()

	c2, err := Open(journalConfig(crash))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	st := c2.Stats()
	if st.RecoveredTasks != 4 || st.RecoveredCompleted != 1 || st.RecoveredRequeued != 1 {
		t.Fatalf("recovered counters: %+v", st)
	}
	if st.Queued != 3 || st.Completed != 1 {
		t.Fatalf("recovered queue: %+v", st)
	}
	completed, requeued := c2.Recovered()
	if len(completed) != 1 || completed[0] != doneKey {
		t.Fatalf("Recovered completed = %v, want [%s]", completed, doneKey)
	}
	if len(requeued) != 1 || requeued[0] != midKey {
		t.Fatalf("Recovered requeued = %v, want [%s]", requeued, midKey)
	}

	// The reattach protocol: same ID, same specs → the surviving job.
	job, attached, err := c2.SubmitTasks("job-x", specs)
	if err != nil || !attached {
		t.Fatalf("SubmitTasks: attached=%v err=%v", attached, err)
	}
	if _, _, err := c2.SubmitTasks("job-x", specs[:2]); err == nil {
		t.Error("SubmitTasks with different specs attached")
	}

	// Drain the survivors; the completed key must never be re-leased.
	w2, _, err := c2.Register("w2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		key := leaseKey(t, c2, w2)
		if key == doneKey {
			t.Fatalf("completed key %s re-leased after recovery", doneKey)
		}
		payload, _ := json.Marshal(map[string]string{"from": key})
		completeKey(t, c2, w2, key, payload)
	}
	results, err := job.Wait(context.Background())
	if err != nil || len(results) != 4 {
		t.Fatalf("Wait: %d results, err=%v", len(results), err)
	}
	for _, r := range results {
		if r.Failed != "" {
			t.Errorf("task %s failed: %s", r.Key, r.Failed)
		}
		if r.Key == doneKey && string(r.Payload) != string(donePayload) {
			t.Errorf("recovered payload for %s = %s, want the pre-crash bytes %s",
				r.Key, r.Payload, donePayload)
		}
	}
}

// TestJournalTornTailRecovered cuts into the final record of a
// segment — the disk state of a crash mid-append — and requires the
// replay to warn, skip the tear, and recover every prior record's
// state intact.
func TestJournalTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubmitTasks("job-t", []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)}); err != nil {
		t.Fatal(err)
	}
	w, _, err := c.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
	key := leaseKey(t, c, w)
	payload, _ := json.Marshal(map[string]int{"v": 1})
	completeKey(t, c, w, key, payload) // the record the tear will eat
	c.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	cfg := journalConfig(dir)
	cfg.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, format)
	}
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	st := c2.Stats()
	// The completion is gone with the tear; the lease record survives,
	// so the task comes back re-queued alongside the untouched one.
	if st.RecoveredTasks != 2 || st.RecoveredCompleted != 0 || st.RecoveredRequeued != 1 {
		t.Fatalf("recovered counters after tear: %+v", st)
	}
	if st.Queued != 2 {
		t.Fatalf("queued after tear = %d, want 2", st.Queued)
	}
	mu.Lock()
	defer mu.Unlock()
	warned := false
	for _, l := range logs {
		if strings.Contains(l, "torn tail") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no torn-tail warning logged; logs: %v", logs)
	}
}

// TestJournalTruncateEveryOffset is the fleet-level crash-injection
// property (the runstate append-log has the frame-level twin): a
// segment cut at EVERY byte offset — any possible torn write — must
// still open, recovering an atomic prefix of the record sequence:
// either both submitted tasks or none, a completion only with its
// full checksummed payload, and counters that agree with the queue.
func TestJournalTruncateEveryOffset(t *testing.T) {
	master := t.TempDir()
	c, err := Open(journalConfig(master))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubmitTasks("job-e", []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)}); err != nil {
		t.Fatal(err)
	}
	w, _, err := c.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
	key := leaseKey(t, c, w)
	payload, _ := json.Marshal(map[string]int{"v": 7})
	completeKey(t, c, w, key, payload)
	c.Close()

	data, err := os.ReadFile(filepath.Join(master, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for off := 0; off <= len(data); off++ {
		dir := filepath.Join(root, strconv.Itoa(off))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := Open(journalConfig(dir))
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		st := c2.Stats()
		if st.RecoveredTasks != 0 && st.RecoveredTasks != 2 {
			t.Fatalf("offset %d: submit record split: %d tasks recovered", off, st.RecoveredTasks)
		}
		if int64(st.Queued)+st.RecoveredCompleted != st.RecoveredTasks {
			t.Fatalf("offset %d: inconsistent counters: %+v", off, st)
		}
		if st.RecoveredCompleted > 0 {
			// Only a fully-written completion recovers; its payload
			// must be the original bytes. Finish the job to read it.
			w2, _, err := c2.Register("w2")
			if err != nil {
				t.Fatal(err)
			}
			other := leaseKey(t, c2, w2)
			if other == key {
				t.Fatalf("offset %d: completed task %s re-leased", off, key)
			}
			completeKey(t, c2, w2, other, payload)
			j, err := c2.Attach("job-e")
			if err != nil {
				t.Fatalf("offset %d: Attach: %v", off, err)
			}
			results, err := j.Wait(context.Background())
			if err != nil {
				t.Fatalf("offset %d: Wait: %v", off, err)
			}
			for _, tr := range results {
				if tr.Key == key && string(tr.Payload) != string(payload) {
					t.Fatalf("offset %d: recovered payload %q, want %q", off, tr.Payload, payload)
				}
			}
		}
		c2.Close()
	}
}

// TestJournalCompaction proves the journal does not grow across
// campaigns: once the last job is released the segments are replaced
// by one fresh empty one, and the same task keys can be re-submitted.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	specs := []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)}
	job, _, err := c.SubmitTasks("job-c", specs)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := c.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		key := leaseKey(t, c, w)
		payload, _ := json.Marshal(map[string]string{"k": key})
		completeKey(t, c, w, key, payload)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	segs, err := journalSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after release = %v, want one fresh segment", segs)
	}
	rec, err := replayJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.tasks) != 0 || len(rec.jobs) != 0 {
		t.Fatalf("compacted journal replays state: %d tasks, %d jobs", len(rec.tasks), len(rec.jobs))
	}
	if _, _, err := c.SubmitTasks("job-c2", specs); err != nil {
		t.Fatalf("re-submitting released keys: %v", err)
	}
}

// TestJournalHaltPreservesJobs: Close (the drain path) interrupts
// waiters with ErrCoordinatorClosed, keeps the job attachable across a
// reopen, and the reattached Wait delivers the full results.
func TestJournalHaltPreservesJobs(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := c.SubmitTasks("job-h", []TaskSpec{cellSpec("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := job.Wait(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	if err := <-errc; !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("Wait across Close: %v", err)
	}

	c2, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	job2, err := c2.Attach("job-h")
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := c2.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
	key := leaseKey(t, c2, w)
	payload, _ := json.Marshal(map[string]int{"v": 7})
	completeKey(t, c2, w, key, payload)
	results, err := job2.Wait(context.Background())
	if err != nil || len(results) != 1 || results[0].Failed != "" {
		t.Fatalf("reattached Wait: results=%+v err=%v", results, err)
	}
	if _, err := c2.Attach("job-h"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Attach after release: %v, want ErrUnknownJob", err)
	}
}

// TestJournalFailedCompleteExpiresLease: a completion whose journal
// append fails is not accepted, and the task must not be stranded —
// its lease stays with the worker, so the sweeper expires it, the task
// re-queues, and the job completes once a later attempt journals.
func TestJournalFailedCompleteExpiresLease(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, _, err := c.SubmitTasks("job-f", []TaskSpec{cellSpec("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	w1, _, err := c.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
	key := leaseKey(t, c, w1)
	payload := []byte(`{"rmse":[1]}`)

	// Break the journal for exactly one append: close the live segment,
	// attempt the completion, then reopen the segment.
	c.mu.Lock()
	segment := filepath.Join(c.jnl.dir, segName(c.jnl.seq))
	_ = c.jnl.log.Close()
	c.mu.Unlock()
	if status, err := c.Complete(w1, key, payload, Checksum(payload), time.Millisecond); err == nil {
		t.Fatalf("Complete with a failing journal: status %s, want an error", status)
	}
	log, err := runstate.OpenAppendLog(segment)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.jnl.log = log
	c.mu.Unlock()

	// w1 stays registered (it heartbeats) but no longer renews the lease
	// it failed to complete: the lease itself must expire and re-queue.
	deadline := time.Now().Add(3 * time.Second)
	var spec *TaskSpec
	for spec == nil && time.Now().Before(deadline) {
		if _, err := c.Heartbeat(w1, nil); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if spec, err = c.LeaseWait(context.Background(), w1, 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if spec == nil || spec.Key != key {
		t.Fatalf("task stranded after a failed completion: re-leased %v", spec)
	}
	if st := c.Stats(); st.Expired == 0 || st.Requeues == 0 {
		t.Errorf("stats after the lease expired: %+v", st)
	}
	completeKey(t, c, w1, key, payload)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	results, err := job.Wait(ctx)
	if err != nil || len(results) != 1 || string(results[0].Payload) != string(payload) {
		t.Fatalf("job after recovery: results %+v, err %v", results, err)
	}
}
