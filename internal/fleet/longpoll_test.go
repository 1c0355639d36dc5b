package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The long-poll gates: an idle worker parks its lease request in the
// coordinator and a submit, a re-queue or a shutdown releases it at
// once; a remote job wait parks the same way until the job is done.
// Each test checks for leaked goroutines once its servers are closed.

// checkNoLeak fails the test if, once every deferred close has run,
// the goroutine count does not settle back to where it started.
func checkNoLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d > %d at start\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// longPollConfig advertises a 5 s poll with the default 15 s TTL, so
// the heartbeat cap (TTL/3) allows the whole poll as a hold. Under the
// old sleep-out-the-poll loop an idle worker would take up to 5 s to
// notice new work.
func longPollConfig() Config {
	return Config{Poll: 5 * time.Second}
}

// waitParked blocks until the coordinator has a registered worker and
// gives its first lease request time to park.
func waitParked(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Workers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
}

// requestCounter wraps a coordinator handler, counting requests under path
// and, when strip is set, dropping the query string the way a
// coordinator that predates long-polling ignores wait_ms.
type requestCounter struct {
	h      http.Handler
	path   string
	strip  bool
	served atomic.Int64
}

func (l *requestCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if l.strip {
		r.URL.RawQuery = ""
	}
	if strings.HasPrefix(r.URL.Path, l.path) {
		l.served.Add(1)
	}
	l.h.ServeHTTP(w, r)
}

// TestLeaseHoldWakesOnSubmit: a worker parked in a held lease picks up
// a submitted task at once, not at its next 5 s poll; and a drain
// while the lease is held returns promptly.
func TestLeaseHoldWakesOnSubmit(t *testing.T) {
	checkNoLeak(t)
	c := New(longPollConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL, Name: "parked", Runner: echoRunner{}, Logf: t.Logf}
	errCh := runWorker(t, w, ctx)
	waitParked(t, c)

	for round := 0; round < 3; round++ {
		start := time.Now()
		job := mustSubmit(t, c, []TaskSpec{cellSpec(fmt.Sprintf("cell/p/s/%d", round), round)})
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		results, err := job.Wait(wctx)
		wcancel()
		if err != nil || len(results) != 1 || results[0].Failed != "" {
			t.Fatalf("round %d: results=%+v err=%v", round, results, err)
		}
		if d := time.Since(start); d >= time.Second {
			t.Errorf("round %d: task took %v to complete with a parked worker, want < 1s", round, d)
		}
		time.Sleep(30 * time.Millisecond) // let the worker park again
	}

	start := time.Now()
	cancel()
	waitWorker(t, errCh, nil)
	if d := time.Since(start); d >= time.Second {
		t.Errorf("drain with a held lease took %v, want < 1s", d)
	}
}

// TestLeaseHoldWokenByRequeue: a lease bounced back to the queue — by
// lease expiry or by a worker-reported failure — wakes a lease request
// another worker holds.
func TestLeaseHoldWokenByRequeue(t *testing.T) {
	checkNoLeak(t)
	cfg := Config{LeaseTTL: 300 * time.Millisecond, Heartbeat: 5 * time.Second, Poll: 5 * time.Second, MaxAttempts: 8}
	for _, cause := range []string{"expiry", "fail"} {
		t.Run(cause, func(t *testing.T) {
			c := New(cfg)
			defer c.Close()
			a, _, _ := c.Register("a")
			b, _, _ := c.Register("b")
			// Keep both registrations alive; a's lease is never renewed.
			stop := make(chan struct{})
			beat := make(chan struct{})
			go func() {
				defer close(beat)
				tk := time.NewTicker(30 * time.Millisecond)
				defer tk.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tk.C:
						_, _ = c.Heartbeat(a, nil)
						_, _ = c.Heartbeat(b, nil)
					}
				}
			}()
			defer func() { close(stop); <-beat }()

			job := mustSubmit(t, c, []TaskSpec{cellSpec("k", 0)})
			if key := leaseKey(t, c, a); key != "k" {
				t.Fatalf("leased %q", key)
			}
			type got struct {
				spec *TaskSpec
				err  error
				at   time.Time
			}
			out := make(chan got, 1)
			go func() {
				spec, err := c.LeaseWait(context.Background(), b, 5*time.Second)
				out <- got{spec, err, time.Now()}
			}()
			time.Sleep(30 * time.Millisecond)
			bounced := time.Now()
			if cause == "fail" {
				if st, err := c.Fail(a, "k", "boom"); err != nil || st != StatusRequeued {
					t.Fatalf("Fail: %s %v", st, err)
				}
			}
			g := <-out
			if g.err != nil || g.spec == nil || g.spec.Key != "k" {
				t.Fatalf("held lease: spec=%v err=%v", g.spec, g.err)
			}
			limit := 100 * time.Millisecond
			if cause == "expiry" {
				limit = time.Second // TTL plus a sweeper tick
			}
			if d := g.at.Sub(bounced); d >= limit {
				t.Errorf("held lease woke %v after the %s, want < %v", d, cause, limit)
			}
			payload, _ := json.Marshal(map[string]int{"ok": 1})
			completeKey(t, c, b, "k", payload)
			if res, err := job.Wait(context.Background()); err != nil || res[0].Attempts != 2 {
				t.Errorf("job: %+v err=%v", res, err)
			}
		})
	}
}

// TestLeaseHoldManyWaiters: with several workers parked and as many
// tasks submitted concurrently, every held request gets exactly one
// task promptly — each submit's wake reaches all waiters, and a waiter
// that loses the race re-parks on the fresh channel.
func TestLeaseHoldManyWaiters(t *testing.T) {
	checkNoLeak(t)
	c := New(longPollConfig())
	defer c.Close()
	const n = 8
	got := make(chan string, n)
	var held sync.WaitGroup
	for i := 0; i < n; i++ {
		id, _, err := c.Register(fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		held.Add(1)
		go func() {
			defer held.Done()
			spec, err := c.LeaseWait(context.Background(), id, 5*time.Second)
			if err != nil || spec == nil {
				t.Errorf("worker %s: spec=%v err=%v", id, spec, err)
				got <- ""
				return
			}
			got <- spec.Key
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the requests park
	start := time.Now()
	var submits sync.WaitGroup
	for i := 0; i < n; i++ {
		submits.Add(1)
		go func() {
			defer submits.Done()
			if _, _, err := c.SubmitTasks("", []TaskSpec{cellSpec(fmt.Sprintf("k%d", i), i)}); err != nil {
				t.Errorf("SubmitTasks: %v", err)
			}
		}()
	}
	submits.Wait()
	held.Wait()
	if d := time.Since(start); d >= time.Second {
		t.Errorf("%d parked workers took %v to pick up %d tasks", n, d, n)
	}
	close(got)
	seen := map[string]bool{}
	for key := range got {
		if key == "" || seen[key] {
			t.Errorf("task %q leased twice or not at all", key)
		}
		seen[key] = true
	}
	if st := c.Stats(); st.Leased != n || st.Queued != 0 {
		t.Errorf("after the wake-up: %+v", st)
	}
}

// TestLeaseHoldReleasedByShutdown: Close and Halt answer every held
// lease request with ErrClosed within 100 ms, and the HTTP layer maps
// that to 503.
func TestLeaseHoldReleasedByShutdown(t *testing.T) {
	checkNoLeak(t)
	for _, how := range []string{"close", "halt"} {
		t.Run(how, func(t *testing.T) {
			c := New(longPollConfig())
			id, _, _ := c.Register("w")
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			w := &Worker{Coordinator: srv.URL}
			w.init()

			direct := make(chan error, 1)
			go func() {
				_, err := c.LeaseWait(context.Background(), id, 5*time.Second)
				direct <- err
			}()
			viaHTTP := make(chan int, 1)
			go func() {
				_, status, _ := w.lease(context.Background(), id, 5*time.Second)
				viaHTTP <- status
			}()
			time.Sleep(50 * time.Millisecond)
			start := time.Now()
			if how == "close" {
				c.Close()
			} else {
				c.Halt()
			}
			if err := <-direct; !errors.Is(err, ErrClosed) {
				t.Errorf("held lease after %s: %v, want ErrClosed", how, err)
			}
			if status := <-viaHTTP; status != http.StatusServiceUnavailable {
				t.Errorf("held HTTP lease after %s: status %d, want 503", how, status)
			}
			if d := time.Since(start); d >= 100*time.Millisecond {
				t.Errorf("%s released held leases after %v, want < 100ms", how, d)
			}
		})
	}
}

// TestLeaseHoldCanceledKeepsTaskQueued: a held request whose context
// ends answers with the context's error, and a request whose context
// is already done is never granted a lease — the task stays queued
// with its attempts untouched.
func TestLeaseHoldCanceledKeepsTaskQueued(t *testing.T) {
	checkNoLeak(t)
	c := New(longPollConfig())
	defer c.Close()
	id, _, _ := c.Register("w")

	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		spec, err := c.LeaseWait(ctx, id, 5*time.Second)
		if spec != nil {
			err = errors.New("granted a lease to a canceled request")
		}
		out <- err
	}()
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	if err := <-out; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled hold: %v", err)
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Errorf("canceled hold answered after %v", d)
	}

	job := mustSubmit(t, c, []TaskSpec{cellSpec("k", 0)})
	if spec, err := c.LeaseWait(ctx, id, 5*time.Second); spec != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: spec=%v err=%v", spec, err)
	}
	if st := c.Stats(); st.Queued != 1 || st.Leased != 0 {
		t.Fatalf("after canceled requests: %+v", st)
	}
	if key := leaseKey(t, c, id); key != "k" {
		t.Fatalf("leased %q", key)
	}
	payload, _ := json.Marshal(map[string]int{"ok": 1})
	completeKey(t, c, id, "k", payload)
	if res, err := job.Wait(context.Background()); err != nil || res[0].Attempts != 1 {
		t.Errorf("attempts after canceled holds: %+v err=%v, want 1", res, err)
	}
}

// TestLeaseHoldCappedAtHeartbeat: a hold never outlasts the heartbeat
// interval, whatever wait the request asked for.
func TestLeaseHoldCappedAtHeartbeat(t *testing.T) {
	checkNoLeak(t)
	c := New(Config{Heartbeat: 50 * time.Millisecond, Poll: 5 * time.Second})
	defer c.Close()
	id, _, _ := c.Register("w")
	start := time.Now()
	spec, err := c.LeaseWait(context.Background(), id, time.Hour)
	if spec != nil || err != nil {
		t.Fatalf("idle hold: spec=%v err=%v", spec, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d >= time.Second {
		t.Errorf("hold lasted %v, want the 50ms heartbeat cap", d)
	}
}

// TestLeaseHoldOldCoordinatorCadence: against a coordinator that
// ignores wait_ms and answers an idle lease at once, an idle slot
// still sends at most one lease request per Poll; against one that
// holds, the same holds.
func TestLeaseHoldOldCoordinatorCadence(t *testing.T) {
	checkNoLeak(t)
	for _, strip := range []bool{true, false} {
		name := "holding"
		if strip {
			name = "old"
		}
		t.Run(name, func(t *testing.T) {
			poll := 100 * time.Millisecond
			c := New(Config{Poll: poll})
			defer c.Close()
			lc := &requestCounter{h: c.Handler(), path: "/fleet/lease", strip: strip}
			srv := httptest.NewServer(lc)
			defer srv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &Worker{Coordinator: srv.URL, Name: "idle", Runner: echoRunner{}}
			start := time.Now()
			errCh := runWorker(t, w, ctx)
			time.Sleep(time.Second)
			cancel()
			waitWorker(t, errCh, nil)
			elapsed := time.Since(start)
			n := lc.served.Load()
			if max := int64(elapsed/poll) + 1; n > max {
				t.Errorf("%d lease requests in %v at a %v poll, want <= %d", n, elapsed, poll, max)
			}
			if n < 3 {
				t.Errorf("only %d lease requests in %v: the slot stopped polling", n, elapsed)
			}
		})
	}
}

// TestClientLongPollWakesOnDone: a remote Wait with a 5 s poll returns
// within a second of the job finishing, because the coordinator holds
// the status request until the job is done.
func TestClientLongPollWakesOnDone(t *testing.T) {
	checkNoLeak(t)
	c := New(longPollConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Poll: 5 * time.Second, RetryFor: 5 * time.Second}

	h, _, err := cl.SubmitTasks("job-lp", []TaskSpec{cellSpec("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	type waitOut struct {
		results []TaskResult
		err     error
		at      time.Time
	}
	outc := make(chan waitOut, 1)
	go func() {
		results, err := h.Wait(context.Background())
		outc <- waitOut{results, err, time.Now()}
	}()
	time.Sleep(100 * time.Millisecond) // the Wait is parked in a held poll
	w, _, _ := c.Register("w")
	key := leaseKey(t, c, w)
	payload, _ := json.Marshal(map[string]string{"k": key})
	completeKey(t, c, w, key, payload)
	finished := time.Now()

	out := <-outc
	if out.err != nil || len(out.results) != 1 || string(out.results[0].Payload) != string(payload) {
		t.Fatalf("Wait: %+v err=%v", out.results, out.err)
	}
	if d := out.at.Sub(finished); d >= time.Second {
		t.Errorf("Wait returned %v after the job finished, want < 1s", d)
	}
}

// TestClientLongPollRidesOutRestart: a long-polling Wait parked on a
// coordinator that halts and comes back from its journal behind the
// same address still delivers the job's results.
func TestClientLongPollRidesOutRestart(t *testing.T) {
	checkNoLeak(t)
	dir := t.TempDir()
	cfg := longPollConfig()
	cfg.Journal = dir
	c1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{h: c1.Handler()}
	srv := httptest.NewServer(sw)
	defer srv.Close()
	cl := &Client{Base: srv.URL, Poll: time.Second, RetryFor: 5 * time.Second}

	specs := []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)}
	h, _, err := cl.SubmitTasks("job-lpr", specs)
	if err != nil {
		t.Fatal(err)
	}
	w, _, _ := c1.Register("w1")
	doneKey := leaseKey(t, c1, w)
	donePayload, _ := json.Marshal(map[string]string{"from": "before-restart"})
	completeKey(t, c1, w, doneKey, donePayload)

	type waitOut struct {
		results []TaskResult
		err     error
	}
	outc := make(chan waitOut, 1)
	go func() {
		results, err := h.Wait(context.Background())
		outc <- waitOut{results, err}
	}()
	time.Sleep(100 * time.Millisecond) // parked on c1

	sw.swap(nil, true)
	start := time.Now()
	c1.Halt() // releases the parked status request
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Errorf("Halt with a parked status request took %v", d)
	}
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sw.swap(c2.Handler(), false)

	w2, _, _ := c2.Register("w2")
	key := leaseKey(t, c2, w2)
	payload, _ := json.Marshal(map[string]string{"from": "after-restart"})
	completeKey(t, c2, w2, key, payload)

	out := <-outc
	if out.err != nil || len(out.results) != 2 {
		t.Fatalf("Wait across restart: %d results, err=%v", len(out.results), out.err)
	}
	for _, r := range out.results {
		if r.Key == doneKey && string(r.Payload) != string(donePayload) {
			t.Errorf("payload for %s changed across restart: %s", r.Key, r.Payload)
		}
	}
}

// TestClientLongPollOldServerCadence: against a coordinator that
// ignores wait_ms, Wait keeps one status request per Poll.
func TestClientLongPollOldServerCadence(t *testing.T) {
	checkNoLeak(t)
	c := New(longPollConfig())
	defer c.Close()
	lc := &requestCounter{h: c.Handler(), path: "/fleet/jobs/", strip: true}
	srv := httptest.NewServer(lc)
	defer srv.Close()
	poll := 100 * time.Millisecond
	cl := &Client{Base: srv.URL, Poll: poll, RetryFor: 5 * time.Second}

	h, _, err := cl.SubmitTasks("job-old", []TaskSpec{cellSpec("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	lc.served.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if _, err := h.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on an unfinished job: %v", err)
	}
	elapsed := time.Since(start)
	n := lc.served.Load()
	if max := int64(elapsed/poll) + 1; n > max {
		t.Errorf("%d status requests in %v at a %v poll, want <= %d", n, elapsed, poll, max)
	}
	if n < 3 {
		t.Errorf("only %d status requests in %v", n, elapsed)
	}
}
