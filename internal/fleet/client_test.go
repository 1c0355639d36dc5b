package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// swapHandler stands in for a resident coordinator's address: the
// handler behind it can be taken down (503, the drain signal) and
// replaced by a restarted coordinator's, while clients keep talking to
// the same URL.
type swapHandler struct {
	mu   sync.Mutex
	h    http.Handler
	down bool
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h, down := s.h, s.down
	s.mu.Unlock()
	if down {
		http.Error(w, `{"error":"restarting"}`, http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler, down bool) {
	s.mu.Lock()
	s.h, s.down = h, down
	s.mu.Unlock()
}

func testClient(url string) *Client {
	cl := &Client{Base: url}
	cl.Poll = 5 * time.Millisecond
	cl.RetryFor = 5 * time.Second
	return cl
}

// TestClientSubmitWaitRelease drives the whole remote-submitter
// protocol against an in-process coordinator.
func TestClientSubmitWaitRelease(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := testClient(srv.URL)

	h, attached, err := cl.SubmitTasks("", []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)})
	if err != nil || attached {
		t.Fatalf("SubmitTasks: attached=%v err=%v", attached, err)
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
	results, err := h.Wait(context.Background())
	if err != nil || len(results) != 2 {
		t.Fatalf("Wait: %d results, err=%v", len(results), err)
	}
	// Wait released the job: the keys are free again.
	if _, _, err := cl.SubmitTasks("", []TaskSpec{cellSpec("a", 0)}); err != nil {
		t.Fatalf("re-submitting released keys: %v", err)
	}
	if st, err := cl.SubmitterStats(); err != nil || st.Completed != 2 {
		t.Fatalf("SubmitterStats: %+v err=%v", st, err)
	}
}

// TestClientJobsMatchCoordinator submits the same jobs through the
// in-process coordinator and through a Client against it — named and
// auto-named, empty and with one task, with IDs that must be escaped
// in a URL — and both submitters must deliver every job's results.
func TestClientJobsMatchCoordinator(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := runWorker(t, &Worker{Coordinator: srv.URL, Name: "w", Runner: echoRunner{}, Logf: t.Logf}, ctx)
	defer func() {
		cancel()
		waitWorker(t, errCh, nil)
	}()

	subs := []struct {
		name string
		sub  Submitter
	}{{"coordinator", c}, {"client", testClient(srv.URL)}}
	ids := []string{"", "named", "a?b", "a#b", "a%2Fb", "50%", "campaign/0123456789abcdef", "x/../y"}
	for _, s := range subs {
		for i, id := range ids {
			for _, n := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/id%d/tasks%d", s.name, i, n), func(t *testing.T) {
					var specs []TaskSpec
					if n == 1 {
						specs = append(specs, cellSpec(fmt.Sprintf("%s/%d", s.name, i), i))
					}
					h, attached, err := s.sub.SubmitTasks(id, specs)
					if err != nil || attached {
						t.Fatalf("SubmitTasks(%q): attached=%v err=%v", id, attached, err)
					}
					if id != "" && h.ID() != id {
						t.Errorf("job ID %q, want %q", h.ID(), id)
					}
					wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer wcancel()
					results, err := h.Wait(wctx)
					if err != nil || len(results) != n {
						t.Fatalf("Wait(%q): %d results, err=%v; want %d", id, len(results), err, n)
					}
					for _, r := range results {
						if r.Failed != "" {
							t.Errorf("task %s failed: %s", r.Key, r.Failed)
						}
					}
				})
			}
		}
	}
}

// TestDial drives a one-task job through each kind of -fleet target —
// a served in-process coordinator and a resident one's URL — and
// rejects malformed targets.
func TestDial(t *testing.T) {
	runOne := func(t *testing.T, sub Submitter, base string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		errCh := runWorker(t, &Worker{Coordinator: base, Name: "w", Runner: echoRunner{}, Logf: t.Logf}, ctx)
		defer func() {
			cancel()
			waitWorker(t, errCh, nil)
		}()
		h, _, err := sub.SubmitTasks("", []TaskSpec{cellSpec("dial", 0)})
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer wcancel()
		if results, err := h.Wait(wctx); err != nil || len(results) != 1 || results[0].Failed != "" {
			t.Fatalf("Wait: results=%+v err=%v", results, err)
		}
	}

	t.Run("serve", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		sub, closeFleet, err := Dial("serve="+addr, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet()
		if _, ok := sub.(*Coordinator); !ok {
			t.Fatalf("serve= returned %T, want *Coordinator", sub)
		}
		runOne(t, sub, "http://"+addr)
	})

	t.Run("url", func(t *testing.T) {
		c := New(testConfig())
		defer c.Close()
		srv := httptest.NewServer(c.Handler())
		defer srv.Close()
		sub, closeFleet, err := Dial(srv.URL, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet()
		if _, ok := sub.(*Client); !ok {
			t.Fatalf("URL returned %T, want *Client", sub)
		}
		runOne(t, sub, srv.URL)
	})

	for _, bad := range []string{"serve=nonsense", "ftp://x:1"} {
		if _, _, err := Dial(bad, nil); err == nil {
			t.Errorf("Dial(%q) accepted", bad)
		}
	}
}

// TestClientWaitCtxAbandonsNotCancels: a submitter's context expiry
// abandons the poll but leaves the job running server-side — the
// precondition for its restarted incarnation to reattach.
func TestClientWaitCtxAbandonsNotCancels(t *testing.T) {
	c := New(testConfig())
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := testClient(srv.URL)

	specs := []TaskSpec{cellSpec("a", 0)}
	h, _, err := cl.SubmitTasks("job-abandon", specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: %v, want context.Canceled", err)
	}
	// The job survived the abandoned Wait.
	if _, attached, err := cl.SubmitTasks("job-abandon", specs); err != nil || !attached {
		t.Fatalf("reattach after abandoned Wait: attached=%v err=%v", attached, err)
	}
}

// TestClientRidesOutCoordinatorRestart is the submitter's half of the
// failover story, in-process: the coordinator is halted and reopened
// from its journal behind the same address while a client Wait is in
// flight; the Wait rides out the outage and delivers results that
// include the pre-restart payload bit-identically.
func TestClientRidesOutCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{h: c1.Handler()}
	srv := httptest.NewServer(sw)
	defer srv.Close()
	cl := testClient(srv.URL)

	specs := []TaskSpec{cellSpec("a", 0), cellSpec("b", 1)}
	h, _, err := cl.SubmitTasks("job-r", specs)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := c1.Register("w1")
	if err != nil {
		t.Fatal(err)
	}
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

	// Down for a restart...
	sw.swap(nil, true)
	c1.Close()
	time.Sleep(30 * time.Millisecond) // let the Wait poll hit the outage
	// ...and back, recovered from the journal.
	c2, err := Open(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sw.swap(c2.Handler(), false)

	// The restarted submitter path: same ID + specs attaches.
	if _, attached, err := cl.SubmitTasks("job-r", specs); err != nil || !attached {
		t.Fatalf("reattach after restart: attached=%v err=%v", attached, err)
	}
	completed, _, err := cl.Recovered()
	if err != nil || len(completed) != 1 || completed[0] != doneKey {
		t.Fatalf("Recovered: %v err=%v", completed, err)
	}

	w2, _, err := c2.Register("w2")
	if err != nil {
		t.Fatal(err)
	}
	key := leaseKey(t, c2, w2)
	if key == doneKey {
		t.Fatalf("completed key %s re-leased after restart", doneKey)
	}
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

// TestRegisterBackoff pins the jitter contract: deterministic per
// name, distinct across names, envelope [0.5x, 1.5x) of the capped
// exponential steps.
func TestRegisterBackoff(t *testing.T) {
	a1, a2, b := newRegisterBackoff("wa"), newRegisterBackoff("wa"), newRegisterBackoff("wb")
	base := 50 * time.Millisecond
	max := 2 * time.Second
	differs := false
	for i := 0; i < 12; i++ {
		da, da2, db := a1.delay(), a2.delay(), b.delay()
		if da != da2 {
			t.Fatalf("step %d: same-name backoffs diverge: %v vs %v", i, da, da2)
		}
		if da != db {
			differs = true
		}
		step := base << uint(i)
		if step > max {
			step = max
		}
		lo, hi := step/2, step+step/2
		if da < lo || da >= hi {
			t.Errorf("step %d: delay %v outside [%v, %v)", i, da, lo, hi)
		}
	}
	if !differs {
		t.Error("different worker names produced identical backoff schedules")
	}
}
