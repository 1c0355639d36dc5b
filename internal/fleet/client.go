package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client is a Submitter backed by a resident coordinator's HTTP job
// API (cmd/fleetd). Wait long-polls: each status request lets the
// coordinator hold the answer until the job is done, for up to Poll.
// It is built for the failover story: Wait polls through coordinator
// outages and restarts — the journal keeps the job alive on the other
// side — and cancelling Wait's context abandons the poll without
// cancelling the job server-side, which is exactly what a submitter
// that intends to restart and reattach wants. Results are
// read before the job is released, so a submitter crash between the
// two never loses collected work.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:9070".
	Base string

	// Poll is the job-status poll interval; <= 0 defaults to 200ms.
	// Each status request asks the coordinator to hold its answer for
	// up to Poll, so Wait returns as soon as the job finishes.
	Poll time.Duration

	// RetryFor bounds how long SubmitTasks and SubmitterStats retry
	// transient failures (transport errors, a draining coordinator)
	// before giving up; <= 0 defaults to 30s. Wait polls are unbounded:
	// only its context stops them.
	RetryFor time.Duration

	// HTTP overrides the transport (tests inject short timeouts).
	HTTP *http.Client

	// Logf, when set, receives outage notices.
	Logf func(format string, args ...interface{})
}

// NewClient returns a Submitter for the coordinator at base.
func NewClient(base string) *Client { return &Client{Base: base} }

func (cl *Client) poll() time.Duration {
	if cl.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return cl.Poll
}

func (cl *Client) retryFor() time.Duration {
	if cl.RetryFor <= 0 {
		return 30 * time.Second
	}
	return cl.RetryFor
}

func (cl *Client) http() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (cl *Client) logf(format string, args ...interface{}) {
	if cl.Logf != nil {
		cl.Logf(format, args...)
	}
}

// do sends one JSON request and decodes the response into out (when
// non-nil and the status is a 2xx). Error-status bodies are decoded
// into a readable error. ctx cuts a held request short.
func (cl *Client) do(ctx context.Context, method, path string, body, out interface{}) (int, error) {
	base := strings.TrimRight(cl.Base, "/")
	var rd io.Reader
	if body != nil {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
		rd = &buf
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		var eb fleetErrorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			return resp.StatusCode, fmt.Errorf("fleet: coordinator: %s", eb.Error)
		}
		return resp.StatusCode, fmt.Errorf("fleet: coordinator returned %d for %s %s", resp.StatusCode, method, path)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// retriable reports whether a submission should be retried: transport
// errors (status 0) and a coordinator mid-drain or mid-restart (503).
func retriable(status int) bool {
	return status == 0 || status == http.StatusServiceUnavailable
}

// SubmitTasks implements Submitter over the job API, retrying
// transient failures for up to RetryFor so a submission races a
// coordinator restart instead of dying to it.
func (cl *Client) SubmitTasks(id string, specs []TaskSpec) (Handle, bool, error) {
	deadline := time.Now().Add(cl.retryFor())
	warned := false
	for {
		var resp SubmitJobResponse
		status, err := cl.do(context.Background(), http.MethodPost, "/fleet/jobs", SubmitJobRequest{ID: id, Specs: specs}, &resp)
		if err == nil {
			return &remoteJob{cl: cl, id: resp.Job}, resp.Attached, nil
		}
		if !retriable(status) || time.Now().After(deadline) {
			return nil, false, err
		}
		if !warned {
			cl.logf("fleet: submit: coordinator unreachable (%v), retrying", err)
			warned = true
		}
		time.Sleep(cl.poll())
	}
}

// SubmitterStats implements Submitter: the coordinator's counters over
// the wire.
func (cl *Client) SubmitterStats() (Stats, error) {
	deadline := time.Now().Add(cl.retryFor())
	for {
		var st Stats
		status, err := cl.do(context.Background(), http.MethodGet, "/fleet/stats", nil, &st)
		if err == nil {
			return st, nil
		}
		if !retriable(status) || time.Now().After(deadline) {
			return Stats{}, err
		}
		time.Sleep(cl.poll())
	}
}

// Recovered fetches the keys the coordinator's boot journal replay
// restored — the failover drill reads this to assert completed cells
// were carried over, not re-run.
func (cl *Client) Recovered() (completed, requeued []string, err error) {
	var resp RecoveredResponse
	if _, err := cl.do(context.Background(), http.MethodGet, "/fleet/recovered", nil, &resp); err != nil {
		return nil, nil, err
	}
	return resp.Completed, resp.Requeued, nil
}

// remoteJob is the Handle for a job living in an external coordinator.
type remoteJob struct {
	cl *Client
	id string
}

func (r *remoteJob) ID() string { return r.id }

// Wait polls the job until done, reads the results, then releases the
// job. Each poll asks the coordinator to hold its answer until the job
// is done, for up to Poll; a poll answered sooner (an outage, or a
// coordinator that predates long-polling) is followed by a sleep for
// the rest of Poll, so requests never come faster than one per Poll.
// Outages are ridden out, not surfaced: an unreachable or
// draining coordinator just extends the poll, because the journaled
// job will still be there when it returns. ctx's cancellation abandons
// the poll with ctx's error and leaves the job held — Attach later to
// resume. An unknown job (released by a previous Wait, or a
// coordinator that lost its journal) is a hard error.
func (r *remoteJob) Wait(ctx context.Context) ([]TaskResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	poll := r.cl.poll()
	path := fmt.Sprintf("/fleet/jobs/%s?wait_ms=%d", r.id, poll.Milliseconds())
	warned := false
	for {
		start := time.Now()
		var resp JobStatusResponse
		status, err := r.cl.do(ctx, http.MethodGet, path, nil, &resp)
		switch {
		case err == nil && resp.Done:
			r.release()
			return resp.Results, nil
		case err == nil:
			warned = false
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case status == http.StatusNotFound:
			return nil, fmt.Errorf("%w: %q", ErrUnknownJob, r.id)
		case retriable(status):
			if !warned {
				r.cl.logf("fleet: job %s: coordinator unreachable (%v), waiting it out", r.id, err)
				warned = true
			}
		default:
			return nil, err
		}
		t := time.NewTimer(poll - time.Since(start))
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// release drops the job's keys after its results were read. Best
// effort: an undelivered release leaves the job held until the journal
// is next compacted, never loses data.
func (r *remoteJob) release() {
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := r.cl.do(context.Background(), http.MethodDelete, "/fleet/jobs/"+r.id, nil, nil); err == nil {
			return
		}
		time.Sleep(r.cl.poll())
	}
	r.cl.logf("fleet: could not release job %s; it will be compacted away later", r.id)
}
