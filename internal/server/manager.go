package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/runstate"
)

// Typed admission errors; the HTTP layer maps them to status codes.
var (
	ErrCapacity = errors.New("server: session capacity exhausted")
	ErrQuota    = errors.New("server: tenant quota exhausted")
	ErrNotFound = errors.New("server: no such session")
)

// conflictError reports a tell whose (batch, step) position does not
// match the session's cursor; it carries the expected position so the
// client can resynchronize with a single ask.
type conflictError struct {
	Batch, Step int
}

func (e *conflictError) Error() string {
	return fmt.Sprintf("server: tell out of sequence (expect batch %d step %d)", e.Batch, e.Step)
}

// Config parameterizes a Manager.
type Config struct {
	// MaxSessions bounds live sessions across all tenants; <= 0
	// defaults to 1024. Together with per-session lazy pool sources
	// this is the service memory bound: each session's state scales
	// with labels taken, never with pool size.
	MaxSessions int

	// MaxPerTenant bounds live sessions per tenant; <= 0 defaults to 64.
	MaxPerTenant int

	// CheckpointDir holds one <id>.ckpt per session. Empty disables
	// persistence (and therefore crash recovery).
	CheckpointDir string

	// CheckpointEvery is the per-session checkpoint cadence in
	// iterations; <= 0 defaults to 1.
	CheckpointEvery int

	// Trees is the default surrogate forest size for sessions that do
	// not override it; <= 0 defaults to 32.
	Trees int

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) normalized() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxPerTenant <= 0 {
		c.MaxPerTenant = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Trees <= 0 {
		c.Trees = 32
	}
	return c
}

// Stats is the service-wide counter dump served at /stats and rendered
// by cmd/report's Service section.
type Stats struct {
	Active    int   `json:"active"`
	Created   int64 `json:"created"`
	Recovered int64 `json:"recovered"`
	Completed int64 `json:"completed"`
	Deleted   int64 `json:"deleted"`

	Asks   int64 `json:"asks"`
	Tells  int64 `json:"tells"`
	Labels int64 `json:"labels"`

	TellReplays   int64 `json:"tell_replays"`
	TellConflicts int64 `json:"tell_conflicts"`

	GuardFlagged     int64 `json:"guard_flagged"`
	GuardQuarantined int64 `json:"guard_quarantined"`

	QuotaRejections    int64 `json:"quota_rejections"`
	CapacityRejections int64 `json:"capacity_rejections"`
	BadLabels          int64 `json:"bad_labels"`
	RecoverySkips      int64 `json:"recovery_skips"`
}

// counters is the lock-free backing store for Stats.
type counters struct {
	created, recovered, completed, deleted atomic.Int64
	asks, tells, labels                    atomic.Int64
	tellReplays, tellConflicts             atomic.Int64
	guardFlagged, guardQuarantined         atomic.Int64
	quotaRejections, capacityRejections    atomic.Int64
	badLabels, recoverySkips               atomic.Int64
}

// Manager owns the live session table: admission, quotas, recovery and
// drain. Per-session serialization lives in managed; the Manager mutex
// only guards the table itself, so slow asks on one session never block
// tells on another.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*managed
	tenants  map[string]int
	nextID   int64

	stats counters
}

// NewManager builds an empty manager. Call Recover to adopt checkpoints
// left by a previous process.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:      cfg.normalized(),
		sessions: make(map[string]*managed),
		tenants:  make(map[string]int),
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// managed wraps one core.Session with the per-session serialization and
// idempotency state the wire protocol needs. All field access goes
// through mu; core.Session itself is not safe for concurrent use.
type managed struct {
	mu     sync.Mutex
	id     string
	tenant string
	man    *Manifest
	sess   *core.Session

	// told is the label cursor inside the current batch: how many
	// labels have been applied since the batch was staged. A tell must
	// arrive at (Iteration, told) exactly; the immediately previous
	// position replays its cached response instead of double-applying.
	told      int
	lastBatch int
	lastStep  int
	lastResp  *TellResponse
	hasLast   bool

	gone bool // deleted while a handler held a reference
}

// checkpointPath is the session's durable home, or "" when persistence
// is off.
func (m *Manager) checkpointPath(id string) string {
	if m.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(m.cfg.CheckpointDir, id+".ckpt")
}

// manifestFromRequest fills defaults and normalizes a creation request
// into the durable manifest. The manifest records effective values, so
// recovery never depends on default drift.
func (m *Manager) manifestFromRequest(id string, req *CreateRequest) (*Manifest, error) {
	man := &Manifest{
		ID:             id,
		Tenant:         req.Tenant,
		Space:          req.Space,
		PoolSeed:       req.PoolSeed,
		PoolSize:       req.PoolSize,
		Seed:           req.Seed,
		Strategy:       req.Strategy,
		Alpha:          req.Alpha,
		Trees:          req.Trees,
		GuardZ:         req.GuardZ,
		GuardRel:       req.GuardRel,
		GuardRemeasure: req.GuardRemeasure,
	}
	if man.PoolSize <= 0 {
		man.PoolSize = 4096
	}
	if man.PoolSeed == 0 {
		man.PoolSeed = seedFor(id, 0x9e3779b97f4a7c15)
	}
	if man.Seed == 0 {
		man.Seed = seedFor(id, 0xd1b54a32d192ed03)
	}
	if man.Strategy == "" {
		man.Strategy = "PWU"
	}
	if man.Alpha <= 0 {
		man.Alpha = 0.05
	}
	if man.Trees <= 0 {
		man.Trees = m.cfg.Trees
	}
	p := core.Params{NInit: req.NInit, NBatch: req.NBatch, NMax: req.NMax}.Normalized()
	man.NInit, man.NBatch, man.NMax = p.NInit, p.NBatch, p.NMax
	if man.NMax > man.PoolSize {
		return nil, fmt.Errorf("server: n_max %d exceeds pool_size %d", man.NMax, man.PoolSize)
	}
	return man, nil
}

// sessionConfig rebuilds the full deterministic session configuration
// from a manifest — shared by Create and Recover so a recovered session
// is indistinguishable from one that never died.
func (m *Manager) sessionConfig(man *Manifest) (core.SessionConfig, error) {
	if man.Trees > maxTrees {
		return core.SessionConfig{}, fmt.Errorf("%w: trees %d exceeds %d", errInvalid, man.Trees, maxTrees)
	}
	sp, err := BuildSpace(man.Space)
	if err != nil {
		return core.SessionConfig{}, err
	}
	strat, err := core.ByName(man.Strategy, man.Alpha)
	if err != nil {
		return core.SessionConfig{}, fmt.Errorf("server: %w", err)
	}
	service, err := man.encode()
	if err != nil {
		return core.SessionConfig{}, err
	}
	p := core.Params{
		NInit:           man.NInit,
		NBatch:          man.NBatch,
		NMax:            man.NMax,
		Guard:           man.guard(),
		CheckpointEvery: m.cfg.CheckpointEvery,
	}
	p.Forest.NumTrees = man.Trees
	if path := m.checkpointPath(man.ID); path != "" {
		p.Checkpoint = runstate.FileSink(path)
	}
	return core.SessionConfig{
		Source:   pool.NewUniform(sp, man.PoolSeed, man.PoolSize),
		Strategy: strat,
		Params:   p,
		Service:  service,
	}, nil
}

// Create admits a new session. Admission is checked and the slot
// reserved under the table lock; the (cheap) session construction
// happens outside it.
func (m *Manager) Create(req *CreateRequest) (*managed, error) {
	tenant := req.Tenant

	m.mu.Lock()
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.stats.capacityRejections.Add(1)
		return nil, ErrCapacity
	}
	if m.tenants[tenant] >= m.cfg.MaxPerTenant {
		m.mu.Unlock()
		m.stats.quotaRejections.Add(1)
		return nil, ErrQuota
	}
	var id string
	for {
		m.nextID++
		id = fmt.Sprintf("s-%08d", m.nextID)
		if _, taken := m.sessions[id]; !taken {
			break
		}
	}
	// Reserve the slot so concurrent creates respect the caps while we
	// build the session outside the lock.
	placeholder := &managed{id: id, tenant: tenant}
	m.sessions[id] = placeholder
	m.tenants[tenant]++
	m.mu.Unlock()

	// Release the slot on every path that does not admit the session,
	// a panic included: a leaked slot would count against the caps
	// forever.
	admitted := false
	defer func() {
		if admitted {
			return
		}
		m.mu.Lock()
		delete(m.sessions, id)
		m.tenants[tenant]--
		if m.tenants[tenant] <= 0 {
			delete(m.tenants, tenant)
		}
		m.mu.Unlock()
	}()

	man, err := m.manifestFromRequest(id, req)
	if err != nil {
		return nil, err
	}
	cfg, err := m.sessionConfig(man)
	if err != nil {
		return nil, err
	}
	cfg.RNG = rng.New(man.Seed)
	sess, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	admitted = true
	placeholder.mu.Lock()
	placeholder.man, placeholder.sess = man, sess
	placeholder.mu.Unlock()
	m.stats.created.Add(1)
	m.logf("session %s created (tenant=%q strategy=%s pool=%d nmax=%d)",
		id, tenant, man.Strategy, man.PoolSize, man.NMax)
	return placeholder, nil
}

// get returns a live session by id.
func (m *Manager) get(id string) (*managed, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok || s.sessUnset() {
		return nil, ErrNotFound
	}
	return s, nil
}

// sessUnset reports a placeholder whose construction has not finished
// (or failed and is about to be released).
func (s *managed) sessUnset() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess == nil
}

// Delete removes a session and its checkpoint file.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.tenants[s.tenant]--
		if m.tenants[s.tenant] <= 0 {
			delete(m.tenants, s.tenant)
		}
	}
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	s.mu.Lock()
	s.gone = true
	s.mu.Unlock()
	if path := m.checkpointPath(id); path != "" {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			m.logf("session %s: removing checkpoint: %v", id, err)
		}
	}
	m.stats.deleted.Add(1)
	m.logf("session %s deleted", id)
	return nil
}

// Recover scans the checkpoint directory and adopts every decodable
// snapshot that carries a service manifest. Damaged or alien files are
// skipped with a log line — a half-written checkpoint from a crash must
// not block the daemon from serving. Returns the number of sessions
// adopted.
func (m *Manager) Recover() (int, error) {
	if m.cfg.CheckpointDir == "" {
		return 0, nil
	}
	paths, err := filepath.Glob(filepath.Join(m.cfg.CheckpointDir, "*.ckpt"))
	if err != nil {
		return 0, fmt.Errorf("server: scanning checkpoints: %w", err)
	}
	sort.Strings(paths)
	adopted := 0
	for _, path := range paths {
		if err := m.recoverOne(path); err != nil {
			m.stats.recoverySkips.Add(1)
			m.logf("recovery: skipping %s: %v", filepath.Base(path), err)
			continue
		}
		adopted++
	}
	return adopted, nil
}

func (m *Manager) recoverOne(path string) error {
	snap, err := runstate.Load(path)
	if err != nil {
		return err
	}
	man, err := decodeManifest(snap.Service)
	if err != nil {
		return err
	}
	if want := filepath.Base(path); want != man.ID+".ckpt" {
		return fmt.Errorf("server: manifest id %q does not match file %s", man.ID, want)
	}

	m.mu.Lock()
	if _, dup := m.sessions[man.ID]; dup {
		m.mu.Unlock()
		return fmt.Errorf("server: session %s already live", man.ID)
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.stats.capacityRejections.Add(1)
		return ErrCapacity
	}
	placeholder := &managed{id: man.ID, tenant: man.Tenant}
	m.sessions[man.ID] = placeholder
	m.tenants[man.Tenant]++
	// Keep fresh ids ahead of every recovered one.
	var n int64
	if _, err := fmt.Sscanf(man.ID, "s-%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
	m.mu.Unlock()

	cfg, err := m.sessionConfig(man)
	if err == nil {
		var sess *core.Session
		sess, err = core.ResumeSession(snap, cfg)
		if err == nil {
			placeholder.mu.Lock()
			placeholder.man, placeholder.sess = man, sess
			placeholder.mu.Unlock()
			m.stats.recovered.Add(1)
			m.logf("session %s recovered at iteration %d (%d labels)",
				man.ID, sess.Iteration(), sess.Samples())
			return nil
		}
	}
	m.mu.Lock()
	delete(m.sessions, man.ID)
	m.tenants[man.Tenant]--
	if m.tenants[man.Tenant] <= 0 {
		delete(m.tenants, man.Tenant)
	}
	m.mu.Unlock()
	return err
}

// Drain checkpoints every session that sits at an iteration boundary.
// Mid-batch sessions already have their last boundary on disk — the
// resumed session's Ask re-derives the lost batch from the restored
// generator, so nothing is lost either way.
func (m *Manager) Drain(ctx context.Context) {
	if m.cfg.CheckpointDir == "" {
		return
	}
	m.mu.Lock()
	live := make([]*managed, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.mu.Unlock()
	for _, s := range live {
		if ctx.Err() != nil {
			return
		}
		s.mu.Lock()
		if s.sess == nil || s.gone {
			s.mu.Unlock()
			continue
		}
		snap, err := s.sess.Snapshot()
		id := s.id
		s.mu.Unlock()
		if err != nil {
			continue // mid-batch: last boundary checkpoint stands
		}
		if err := runstate.Save(m.checkpointPath(id), snap); err != nil {
			m.logf("drain: session %s: %v", id, err)
		}
	}
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	active := len(m.sessions)
	m.mu.Unlock()
	return Stats{
		Active:             active,
		Created:            m.stats.created.Load(),
		Recovered:          m.stats.recovered.Load(),
		Completed:          m.stats.completed.Load(),
		Deleted:            m.stats.deleted.Load(),
		Asks:               m.stats.asks.Load(),
		Tells:              m.stats.tells.Load(),
		Labels:             m.stats.labels.Load(),
		TellReplays:        m.stats.tellReplays.Load(),
		TellConflicts:      m.stats.tellConflicts.Load(),
		GuardFlagged:       m.stats.guardFlagged.Load(),
		GuardQuarantined:   m.stats.guardQuarantined.Load(),
		QuotaRejections:    m.stats.quotaRejections.Load(),
		CapacityRejections: m.stats.capacityRejections.Load(),
		BadLabels:          m.stats.badLabels.Load(),
		RecoverySkips:      m.stats.recoverySkips.Load(),
	}
}

// ids returns the live session ids, sorted.
func (m *Manager) ids() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		out = append(out, id)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// ask serializes an Ask on the session and renders the wire response.
func (s *managed) ask(ctx context.Context, m *Manager) (*AskResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone || s.sess == nil {
		return nil, ErrNotFound
	}
	m.stats.asks.Add(1)
	cfgs, err := s.sess.Ask(ctx)
	if errors.Is(err, core.ErrSessionDone) {
		return s.askDoneLocked(), nil
	}
	if err != nil {
		return nil, err
	}
	resp := &AskResponse{
		Batch:   s.sess.Iteration(),
		Step:    s.told,
		Samples: s.sess.Samples(),
		Configs: make([][]int, len(cfgs)),
	}
	for i, c := range cfgs {
		resp.Configs[i] = append([]int(nil), c...)
	}
	return resp, nil
}

func (s *managed) askDoneLocked() *AskResponse {
	return &AskResponse{
		Batch:   s.sess.Iteration(),
		Step:    0,
		Samples: s.sess.Samples(),
		Done:    true,
	}
}

// tell applies labels at an exact (batch, step) position. The position
// the client just told is cached; retransmissions of it replay the
// cached response instead of double-applying — idempotent ingestion
// over an at-least-once transport. Anything else is a conflict carrying
// the expected cursor.
func (s *managed) tell(ctx context.Context, m *Manager, req *TellRequest) (*TellResponse, error) {
	for i, l := range req.Labels {
		if !l.Skip && (math.IsNaN(l.Y) || math.IsInf(l.Y, 0)) {
			m.stats.badLabels.Add(1)
			return nil, fmt.Errorf("server: label %d: non-finite y", i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone || s.sess == nil {
		return nil, ErrNotFound
	}
	if s.hasLast && req.Batch == s.lastBatch && req.Step == s.lastStep {
		m.stats.tellReplays.Add(1)
		resp := *s.lastResp
		return &resp, nil
	}
	// A recovered session has no in-memory replay cache, but its
	// checkpoint already contains every batch told before the write: a
	// retransmission aimed at one of them (the crash ate the response,
	// not the labels) must replay, not conflict, or an at-least-once
	// client wedges against its own successfully-applied tell. The
	// shape is unmistakable: a cursor that has never moved in this
	// process (hasLast false, told 0, nothing asked yet) on a session
	// that already holds samples — only recovery produces that — and a
	// batch number no later than the checkpointed iteration. A tell
	// that was applied but missed the checkpoint resumes at an earlier
	// iteration, so its retransmission still conflicts and sends the
	// client back to re-ask and re-derive. The synthesized response is
	// what the lost one said: batch consumed whole, cursor at the next
	// batch's start.
	recoveredReplay := !s.hasLast && s.told == 0 && s.sess.Expecting() == 0 &&
		s.sess.Samples() > 0 && req.Batch <= s.sess.Iteration()
	if recoveredReplay {
		m.stats.tellReplays.Add(1)
		return &TellResponse{
			Batch:     req.Batch,
			Step:      0,
			Consumed:  len(req.Labels),
			Completed: true,
			Done:      s.sess.Done(),
			Samples:   s.sess.Samples(),
		}, nil
	}
	if req.Batch != s.sess.Iteration() || req.Step != s.told || s.sess.Expecting() == 0 {
		m.stats.tellConflicts.Add(1)
		return nil, &conflictError{Batch: s.sess.Iteration(), Step: s.told}
	}
	m.stats.tells.Add(1)
	rep, err := s.sess.Tell(ctx, req.Labels)
	if err != nil {
		return nil, err
	}
	m.stats.labels.Add(int64(rep.Consumed))
	m.stats.guardFlagged.Add(int64(rep.Flagged))
	m.stats.guardQuarantined.Add(int64(rep.Quarantined))
	prevStep := s.told
	if rep.Completed {
		s.told = 0
	} else {
		s.told += rep.Consumed
	}
	if rep.Done {
		m.stats.completed.Add(1)
	}
	resp := &TellResponse{
		Batch:       req.Batch,
		Step:        s.told,
		Consumed:    rep.Consumed,
		Pending:     rep.Pending,
		Flagged:     rep.Flagged,
		Quarantined: rep.Quarantined,
		Remeasure:   rep.Remeasure,
		Completed:   rep.Completed,
		Done:        rep.Done,
		Samples:     s.sess.Samples(),
	}
	s.lastBatch, s.lastStep, s.hasLast = req.Batch, prevStep, true
	cached := *resp
	s.lastResp = &cached
	return resp, nil
}

// info renders the session's public state for GET /sessions/{id}/model.
func (s *managed) info() (*SessionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone || s.sess == nil {
		return nil, ErrNotFound
	}
	res := s.sess.Result()
	tel := res.Telemetry()
	info := &SessionInfo{
		ID:        s.id,
		Tenant:    s.tenant,
		Strategy:  s.man.Strategy,
		Phase:     s.sess.Phase(),
		Batch:     s.sess.Iteration(),
		Step:      s.told,
		Samples:   s.sess.Samples(),
		NMax:      s.man.NMax,
		Expecting: s.sess.Expecting(),
		Done:      s.sess.Done(),
		LabelCost: res.LabelCost(),
		GuardStats: GuardStats{
			Flagged:     tel.GuardFlagged,
			Quarantined: tel.GuardQuarantined,
			Remeasured:  tel.GuardRemeasured,
		},
	}
	if best := bestIndex(res.TrainY); best >= 0 {
		info.BestY = res.TrainY[best]
		info.BestConfig = append([]int(nil), res.TrainConfigs[best]...)
	}
	return info, nil
}

func bestIndex(y []float64) int {
	best := -1
	for i, v := range y {
		if best < 0 || v < y[best] {
			best = i
		}
	}
	return best
}

// isConflict classifies an error for the HTTP layer.
func isConflict(err error) (*conflictError, bool) {
	var c *conflictError
	if errors.As(err, &c) {
		return c, true
	}
	return nil, false
}

// isClientError reports errors caused by a malformed request rather
// than a server fault.
func isClientError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, errInvalid) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "non-finite y") ||
		strings.Contains(msg, "labels told") ||
		strings.Contains(msg, "empty tell") ||
		strings.Contains(msg, "no labels expected") ||
		strings.Contains(msg, "unknown strategy") ||
		strings.HasPrefix(msg, "server: empty space") ||
		strings.Contains(msg, "exceeds pool_size") ||
		strings.HasPrefix(msg, "space:")
}
