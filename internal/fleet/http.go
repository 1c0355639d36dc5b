package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Wire types for the coordinator's worker-facing API. Timings travel
// as integer milliseconds; payload checksums as decimal uint64 (Go's
// encoder round-trips uint64 exactly).

// RegisterRequest admits a worker to the fleet.
type RegisterRequest struct {
	Name string `json:"name"`
}

// RegisterResponse assigns the worker id and the lease timing contract
// the worker must honor.
type RegisterResponse struct {
	Worker      string `json:"worker"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	PollMS      int64  `json:"poll_ms"`
}

// LeaseRequest asks for one task. How long an idle coordinator may
// hold the request travels as the wait_ms query parameter, not as a
// body field: a coordinator that predates long-polling rejects unknown
// body fields but ignores the parameter and answers at once.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries the leased task; the queue-empty case is a
// bare 204.
type LeaseResponse struct {
	Task *TaskSpec `json:"task"`
}

// HeartbeatRequest renews the worker's registration and its leases.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Keys   []string `json:"keys,omitempty"`
}

// HeartbeatResponse lists leases the worker must abandon.
type HeartbeatResponse struct {
	Drop []string `json:"drop,omitempty"`
}

// CompleteRequest delivers one finished task's payload. Sum is the
// FNV-1a checksum of Payload computed before transmission; ElapsedMS
// the worker-side execution time for utilization accounting.
type CompleteRequest struct {
	Worker    string          `json:"worker"`
	Key       string          `json:"key"`
	Payload   json.RawMessage `json:"payload"`
	Sum       uint64          `json:"sum"`
	ElapsedMS int64           `json:"elapsed_ms"`
}

// CompleteResponse reports how the coordinator ingested the result:
// accepted, duplicate (dropped), corrupt (rejected, lease re-queued)
// or unknown (task released; drop it).
type CompleteResponse struct {
	Status string `json:"status"`
}

// FailRequest reports an execution failure for a held lease.
type FailRequest struct {
	Worker string `json:"worker"`
	Key    string `json:"key"`
	Error  string `json:"error"`
}

// FailResponse reports the lease's fate: requeued, failed (attempts
// exhausted) or stale (not this worker's lease anymore).
type FailResponse struct {
	Status string `json:"status"`
}

// SubmitJobRequest submits specs as one job. A non-empty ID makes the
// call submit-or-attach (the durable resume primitive); empty submits
// a fresh auto-named job.
type SubmitJobRequest struct {
	ID    string     `json:"id,omitempty"`
	Specs []TaskSpec `json:"specs"`
}

// SubmitJobResponse names the job and reports whether the submission
// attached to a surviving job instead of enqueuing a new one.
type SubmitJobResponse struct {
	Job      string `json:"job"`
	Attached bool   `json:"attached,omitempty"`
	Total    int    `json:"total"`
}

// JobStatusResponse is one job's progress. Results is populated only
// once Done — the submitter polls until then, reads the results, and
// releases the job with DELETE.
type JobStatusResponse struct {
	Job       string       `json:"job"`
	Total     int          `json:"total"`
	Remaining int          `json:"remaining"`
	Done      bool         `json:"done"`
	Results   []TaskResult `json:"results,omitempty"`
}

// RecoveredResponse lists the task keys the boot-time journal replay
// restored — the failover drill's evidence that completed cells were
// never re-evaluated.
type RecoveredResponse struct {
	Completed []string `json:"completed,omitempty"`
	Requeued  []string `json:"requeued,omitempty"`
}

type fleetErrorBody struct {
	Error string `json:"error"`
}

// Handler serves the coordinator API:
//
//	POST   /fleet/workers       register
//	DELETE /fleet/workers/{id}  deregister (graceful drain)
//	POST   /fleet/lease         lease one task; ?wait_ms=N holds an idle
//	                            request until a task is queued (204 when none)
//	POST   /fleet/heartbeat     renew registration + leases
//	POST   /fleet/complete      deliver a result (idempotent per key)
//	POST   /fleet/fail          report an execution failure
//	GET    /fleet/stats         counters
//	GET    /healthz             liveness
//
// and the submitter-facing job API (what fleet.Client speaks):
//
//	POST   /fleet/jobs          submit, or submit-or-attach with an ID
//	GET    /fleet/jobs/{id}     progress; results once done (IDs may contain slashes);
//	                            ?wait_ms=N holds the answer until the job is done
//	DELETE /fleet/jobs/{id}     release the job's keys (idempotent)
//	GET    /fleet/recovered     keys restored by the boot journal replay
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/workers", c.handleRegister)
	mux.HandleFunc("DELETE /fleet/workers/{id}", c.handleDeregister)
	mux.HandleFunc("POST /fleet/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/complete", c.handleComplete)
	mux.HandleFunc("POST /fleet/fail", c.handleFail)
	mux.HandleFunc("GET /fleet/stats", c.handleStats)
	mux.HandleFunc("POST /fleet/jobs", c.handleSubmitJob)
	mux.HandleFunc("GET /fleet/jobs/{id...}", c.handleJobStatus)
	mux.HandleFunc("DELETE /fleet/jobs/{id...}", c.handleReleaseJob)
	mux.HandleFunc("GET /fleet/recovered", c.handleRecovered)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fleetWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func fleetWriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func fleetWriteError(w http.ResponseWriter, status int, err error) {
	fleetWriteJSON(w, status, fleetErrorBody{Error: err.Error()})
}

// fleetErrStatus maps a coordinator error to an HTTP status.
func fleetErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func fleetDecodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleet: decoding request: %w", err)
	}
	return nil
}

// fleetWaitParam reads the optional wait_ms query parameter: how long
// the caller lets an idle request be held. Absent means no hold.
func fleetWaitParam(r *http.Request) (time.Duration, error) {
	s := r.URL.Query().Get("wait_ms")
	if s == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("fleet: wait_ms=%q: want a non-negative integer", s)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := fleetDecodeBody(r, &req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	id, cfg, err := c.Register(req.Name)
	if err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	fleetWriteJSON(w, http.StatusCreated, RegisterResponse{
		Worker:      id,
		LeaseTTLMS:  cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: cfg.Heartbeat.Milliseconds(),
		PollMS:      cfg.Poll.Milliseconds(),
	})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := c.Deregister(r.PathValue("id")); err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	fleetWriteJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := fleetDecodeBody(r, &req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	wait, err := fleetWaitParam(r)
	if err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := c.LeaseWait(r.Context(), req.Worker, wait)
	if err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	if spec == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fleetWriteJSON(w, http.StatusOK, LeaseResponse{Task: spec})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := fleetDecodeBody(r, &req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	drop, err := c.Heartbeat(req.Worker, req.Keys)
	if err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	fleetWriteJSON(w, http.StatusOK, HeartbeatResponse{Drop: drop})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := fleetDecodeBody(r, &req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	status, err := c.Complete(req.Worker, req.Key, req.Payload, req.Sum,
		time.Duration(req.ElapsedMS)*time.Millisecond)
	if err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	code := http.StatusOK
	if status == StatusCorrupt {
		code = http.StatusUnprocessableEntity
	}
	fleetWriteJSON(w, code, CompleteResponse{Status: status})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := fleetDecodeBody(r, &req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	status, err := c.Fail(req.Worker, req.Key, req.Error)
	if err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	fleetWriteJSON(w, http.StatusOK, FailResponse{Status: status})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	fleetWriteJSON(w, http.StatusOK, c.Stats())
}

func (c *Coordinator) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req SubmitJobRequest
	if err := fleetDecodeBody(r, &req); err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	h, attached, err := c.SubmitTasks(req.ID, req.Specs)
	if err != nil {
		code := fleetErrStatus(err)
		if code == http.StatusInternalServerError {
			// Key collisions, spec-fingerprint mismatches, invalid
			// specs: the submission conflicts with coordinator state.
			code = http.StatusConflict
		}
		fleetWriteError(w, code, err)
		return
	}
	j := h.(*Job)
	total, _ := j.progress()
	fleetWriteJSON(w, http.StatusCreated, SubmitJobResponse{Job: j.ID(), Attached: attached, Total: total})
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	wait, err := fleetWaitParam(r)
	if err != nil {
		fleetWriteError(w, http.StatusBadRequest, err)
		return
	}
	j, err := c.Attach(r.PathValue("id"))
	if err != nil {
		fleetWriteError(w, fleetErrStatus(err), err)
		return
	}
	j.hold(r.Context(), wait)
	total, remaining := j.progress()
	resp := JobStatusResponse{Job: j.ID(), Total: total, Remaining: remaining, Done: remaining == 0}
	if resp.Done {
		// A peek, not a release: the client reads the results and then
		// releases with DELETE, so a client crash between the two never
		// loses collected work.
		resp.Results = j.collect(false)
	}
	fleetWriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleReleaseJob(w http.ResponseWriter, r *http.Request) {
	if j, err := c.Attach(r.PathValue("id")); err == nil {
		j.collect(true)
	}
	// Unknown means already released — DELETE is idempotent.
	fleetWriteJSON(w, http.StatusOK, map[string]string{"status": "released"})
}

func (c *Coordinator) handleRecovered(w http.ResponseWriter, r *http.Request) {
	completed, requeued := c.Recovered()
	fleetWriteJSON(w, http.StatusOK, RecoveredResponse{Completed: completed, Requeued: requeued})
}
