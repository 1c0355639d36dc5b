package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// CreateRequest opens a session. Space is required; everything else has
// deterministic defaults derived from the assigned session id.
type CreateRequest struct {
	Tenant string      `json:"tenant,omitempty"`
	Space  []ParamSpec `json:"space"`

	PoolSize int    `json:"pool_size,omitempty"`
	PoolSeed uint64 `json:"pool_seed,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	Strategy string  `json:"strategy,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`

	NInit  int `json:"n_init,omitempty"`
	NBatch int `json:"n_batch,omitempty"`
	NMax   int `json:"n_max,omitempty"`
	Trees  int `json:"trees,omitempty"`

	GuardZ         float64 `json:"guard_z,omitempty"`
	GuardRel       float64 `json:"guard_rel,omitempty"`
	GuardRemeasure bool    `json:"guard_remeasure,omitempty"`
}

// CreateResponse echoes the effective session parameters.
type CreateResponse struct {
	ID       string `json:"id"`
	Strategy string `json:"strategy"`
	PoolSize int    `json:"pool_size"`
	NInit    int    `json:"n_init"`
	NBatch   int    `json:"n_batch"`
	NMax     int    `json:"n_max"`
}

// AskResponse carries the pending batch. Batch/Step is the tell cursor
// the next tell must target. Asks are idempotent: re-asking mid-batch
// returns the still-unlabeled remainder of the same batch.
type AskResponse struct {
	Batch   int     `json:"batch"`
	Step    int     `json:"step"`
	Configs [][]int `json:"configs,omitempty"`
	Samples int     `json:"samples"`
	Done    bool    `json:"done,omitempty"`
}

// TellRequest delivers labels for the queue front at an exact cursor
// position. Labels are core.Label on the wire.
type TellRequest struct {
	Batch  int          `json:"batch"`
	Step   int          `json:"step"`
	Labels []core.Label `json:"labels"`
}

// TellResponse reports how the session absorbed the labels.
type TellResponse struct {
	Batch       int  `json:"batch"`
	Step        int  `json:"step"`
	Consumed    int  `json:"consumed"`
	Pending     int  `json:"pending"`
	Flagged     int  `json:"flagged,omitempty"`
	Quarantined int  `json:"quarantined,omitempty"`
	Remeasure   int  `json:"remeasure,omitempty"`
	Completed   bool `json:"completed"`
	Done        bool `json:"done,omitempty"`
	Samples     int  `json:"samples"`
}

// GuardStats summarizes label-guard activity for one session.
type GuardStats struct {
	Flagged     int `json:"flagged"`
	Quarantined int `json:"quarantined"`
	Remeasured  int `json:"remeasured"`
}

// SessionInfo is the GET /sessions/{id}/model view: progress, the
// incumbent best, and guard telemetry.
type SessionInfo struct {
	ID         string     `json:"id"`
	Tenant     string     `json:"tenant,omitempty"`
	Strategy   string     `json:"strategy"`
	Phase      string     `json:"phase"`
	Batch      int        `json:"batch"`
	Step       int        `json:"step"`
	Samples    int        `json:"samples"`
	NMax       int        `json:"n_max"`
	Expecting  int        `json:"expecting"`
	Done       bool       `json:"done"`
	BestConfig []int      `json:"best_config,omitempty"`
	BestY      float64    `json:"best_y,omitempty"`
	LabelCost  float64    `json:"label_cost"`
	GuardStats GuardStats `json:"guard"`
}

// errorBody is every non-2xx payload. ExpectBatch/ExpectStep are set on
// tell conflicts so the client can resynchronize without an extra ask.
type errorBody struct {
	Error       string `json:"error"`
	ExpectBatch *int   `json:"expect_batch,omitempty"`
	ExpectStep  *int   `json:"expect_step,omitempty"`
}

// Handler serves the session API:
//
//	POST   /sessions            create
//	GET    /sessions            list ids
//	POST   /sessions/{id}/ask   get (or re-get) the pending batch
//	POST   /sessions/{id}/tell  deliver labels (idempotent per cursor)
//	GET    /sessions/{id}/model session progress + incumbent
//	DELETE /sessions/{id}       drop the session and its checkpoint
//	GET    /stats               service counters
//	GET    /healthz             liveness
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", m.handleCreate)
	mux.HandleFunc("GET /sessions", m.handleList)
	mux.HandleFunc("POST /sessions/{id}/ask", m.handleAsk)
	mux.HandleFunc("POST /sessions/{id}/tell", m.handleTell)
	mux.HandleFunc("GET /sessions/{id}/model", m.handleModel)
	mux.HandleFunc("DELETE /sessions/{id}", m.handleDelete)
	mux.HandleFunc("GET /stats", m.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// errStatus maps a manager error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrCapacity), errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests
	case isClientError(err):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// maxBodyBytes bounds every request body.
const maxBodyBytes = 1 << 20

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decoding request: %w", err)
	}
	return nil
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s, err := m.Create(&req)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	s.mu.Lock()
	resp := CreateResponse{
		ID:       s.id,
		Strategy: s.man.Strategy,
		PoolSize: s.man.PoolSize,
		NInit:    s.man.NInit,
		NBatch:   s.man.NBatch,
		NMax:     s.man.NMax,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, resp)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": m.ids()})
}

func (m *Manager) handleAsk(w http.ResponseWriter, r *http.Request) {
	s, err := m.get(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	resp, err := s.ask(r.Context(), m)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleTell(w http.ResponseWriter, r *http.Request) {
	s, err := m.get(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	var req TellRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.tell(r.Context(), m, &req)
	if err != nil {
		if c, ok := isConflict(err); ok {
			writeJSON(w, http.StatusConflict, errorBody{
				Error:       err.Error(),
				ExpectBatch: &c.Batch,
				ExpectStep:  &c.Step,
			})
			return
		}
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleModel(w http.ResponseWriter, r *http.Request) {
	s, err := m.get(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	info, err := s.info()
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.Delete(r.PathValue("id")); err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Stats())
}
