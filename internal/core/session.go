package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// This file is the ask-tell inversion of the run engine. Session owns
// everything Algorithm 1 needs except the evaluator: the surrogate, the
// acquisition state, pool membership, the RNG stream, telemetry and
// checkpointing. The caller owns evaluation — it Asks for a batch of
// configurations, measures them however it likes (locally, remotely, by
// hand), and Tells the labels back. Run and Resume are thin drivers
// over a Session plus an in-process labeler (driver.go), bit-identical
// to the historical monolithic loops — the session-equivalence goldens
// pin that equivalence.
//
// The state machine:
//
//	cold ──Ask──▶ labeling ──Tell×batch──▶ ready ──Ask──▶ labeling ─ ...
//	                                        │
//	                                        └──(NMax labels)──▶ done
//
// Ask is idempotent while labels are outstanding (it re-returns the
// pending batch, which is what makes crash recovery trivial: a restored
// session re-derives the lost batch from the restored RNG). Tell
// consumes labels strictly in batch order; when the label guard demands
// re-measurements, the re-measurement slots are prepended to the
// pending queue and Tell reports how many labels it consumed so a
// batching caller can re-Ask and realign.

// sessionPhase is the state-machine position of a Session.
type sessionPhase int

const (
	// phaseCold: created, the cold-start batch has not been asked yet.
	phaseCold sessionPhase = iota

	// phaseLabeling: a batch is outstanding; Tell consumes its labels.
	phaseLabeling

	// phaseReady: at an iteration boundary with a fitted model; the next
	// Ask selects a batch.
	phaseReady

	// phaseDone: NMax labels collected; the session is complete.
	phaseDone

	// phaseFailed: a terminal engine error; every call re-returns it.
	phaseFailed
)

// String names the phase for diagnostics and the service stats.
func (p sessionPhase) String() string {
	switch p {
	case phaseCold:
		return "cold"
	case phaseLabeling:
		return "labeling"
	case phaseReady:
		return "ready"
	case phaseDone:
		return "done"
	case phaseFailed:
		return "failed"
	}
	return "unknown"
}

// ErrSessionDone reports an Ask or Tell against a session that already
// collected its NMax labels.
var ErrSessionDone = errors.New("core: session complete")

// Label is the caller's answer to one asked configuration, in batch
// order. Beyond the measured value it carries the labeling telemetry
// the measurement accumulated (retries, timeouts, the machine time of
// failed attempts), so a driver that retries externally bills the run
// exactly like the historical in-process engine did.
type Label struct {
	// Y is the measured performance (execution time; smaller is better).
	Y float64 `json:"y"`

	// Skip drops the configuration from the pool unlabeled — the
	// ask-tell form of FailSkip after an exhausted retry budget.
	Skip bool `json:"skip,omitempty"`

	// Retries / Timeouts count failed attempts behind this label that
	// were retried, and the subset cut off by a deadline.
	Retries  int `json:"retries,omitempty"`
	Timeouts int `json:"timeouts,omitempty"`

	// FailedCost is machine time consumed by failed attempts (billed
	// into CC; non-finite or non-positive values are ignored).
	FailedCost float64 `json:"failed_cost,omitempty"`
}

// TellReport summarizes what one Tell call did with its labels.
type TellReport struct {
	// Consumed is how many of the call's labels were applied. It is
	// less than len(labels) only when the label guard inserted
	// re-measurement slots mid-call: the caller's remaining labels no
	// longer line up with the queue and must be re-asked.
	Consumed int `json:"consumed"`

	// Pending is how many labels the session still expects before the
	// current batch completes (0 when the batch just completed).
	Pending int `json:"pending"`

	// Flagged / Quarantined / Remeasure are the guard activity of this
	// call: labels found suspect, labels dropped untrained, and
	// re-measurement slots newly appended to the batch.
	Flagged     int `json:"flagged,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Remeasure   int `json:"remeasure,omitempty"`

	// Completed reports that this call finished the batch: the model
	// was (re)fitted and the session advanced to the next boundary.
	Completed bool `json:"completed"`

	// Done reports the session collected its NMax labels.
	Done bool `json:"done"`
}

// SessionConfig assembles a Session. Source is the candidate pool (wrap
// a materialized []space.Config in pool.NewSlice); the parameter space
// is taken from it.
type SessionConfig struct {
	Source   pool.Source
	Strategy Strategy
	Params   Params
	RNG      *rng.RNG
	Observer Observer

	// Evaluator is optional and never called by the Session: it is
	// consulted only when it implements StatefulEvaluator, so snapshots
	// capture (and resumes restore) the evaluator's noise stream.
	Evaluator Evaluator

	// Service is an opaque manifest stored verbatim in snapshots (wire
	// version 2); the tuning service keeps its session identity —
	// tenant, space spec, seeds — here so a daemon restart can rebuild
	// the session's inputs from the checkpoint alone.
	Service json.RawMessage
}

// pendingItem is one queue slot awaiting a label.
type pendingItem struct {
	cfg space.Config
	x   []float64 // encoded features (loop phase only)
	idx int       // global source index

	// mu/sigma are the model's beliefs at selection time; guarded marks
	// loop-phase items the label guard screens (cold-start items have
	// no model to screen against).
	mu, sigma float64
	guarded   bool

	// rm links guard re-measurement slots to their flagged original.
	rm *remeasure
}

// remeasure tracks one guard-flagged label through its K re-measurements.
type remeasure struct {
	item pendingItem // the flagged original (beliefs, features, index)
	y    float64     // the flagged measurement
	vals []float64   // successful re-measurements
	left int         // outstanding re-measurement slots
}

// Session is the resumable ask-tell state machine of Algorithm 1. It is
// not safe for concurrent use; the service layer serializes access per
// session.
type Session struct {
	sp       *space.Space
	features []space.Feature
	strat    Strategy
	p        Params
	r        *rng.RNG
	obs      Observer
	fitter   Fitter
	ev       Evaluator // optional; only StatefulEvaluator state is used

	// src and taken are the pool state: the candidate source and the
	// sorted global indices already removed from the pool (at most NMax
	// of them, so the membership state scales with labels taken rather
	// than pool size).
	src   pool.Source
	taken []int

	// cache reuses score panels across the run's scans (nil without
	// WarmUpdate; see streamCacheBytes).
	cache *pool.ScanCache

	service json.RawMessage

	res      *Result
	trainX   [][]float64
	model    Model
	iter     int
	labelSum float64 // running sum of TrainY

	// fitSeed is the seed of the generator the live model's cold fit
	// drew from, which a snapshot records instead of the model; seeded
	// is false while the model is not a function of one seed (after a
	// warm Update, or when it was decoded from a model-carrying
	// snapshot).
	fitSeed uint64
	seeded  bool

	// modelBytes is the size of the last snapshot's forest encoding,
	// which presizes the next one (see marshalModel).
	modelBytes int

	phase     sessionPhase
	queue     []pendingItem
	batchIdx  []int // global indices claimed by the current batch
	cur       IterStats
	evalStart time.Time
	err       error // terminal error (phaseFailed)
}

// NewSession validates the configuration and builds a session in the
// cold phase; the first Ask returns the NInit cold-start batch.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.RNG == nil {
		return nil, fmt.Errorf("core: nil generator")
	}
	return newSession(cfg, cfg.RNG)
}

// streamCacheBytes bounds the cross-scan score cache (pool.ScanCache) of
// warm-update sessions: per-candidate per-tree leaf-id panels (4 bytes
// an entry) are kept across iterations so each scan re-walks only the
// ensemble slots the preceding partial Update actually refreshed.
// Candidates beyond the budgeted prefix are re-scored from scratch each
// scan; < 0 disables the cache. Results are bit-identical with the cache
// on, off, or at any budget (TestStreamCacheEquivalence). Without
// WarmUpdate every iteration refits a fresh model, no slot survives, and
// the cache stays off.
var streamCacheBytes int64 = 256 << 20

// newSession is the shared construction path of NewSession and
// ResumeSession (which restores the generator from the snapshot instead
// of taking a fresh one).
func newSession(cfg SessionConfig, r *rng.RNG) (*Session, error) {
	p := cfg.Params.Normalized()
	s := &Session{
		strat: cfg.Strategy, p: p, r: r, obs: cfg.Observer,
		ev: cfg.Evaluator, service: cfg.Service,
		res: &Result{},
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: nil source")
	}
	s.src = cfg.Source
	s.sp = cfg.Source.Space()
	if s.sp == nil {
		return nil, fmt.Errorf("core: source has nil space")
	}
	if s.strat == nil {
		return nil, fmt.Errorf("core: nil strategy")
	}
	n := s.src.Len()
	if n < p.NInit {
		return nil, fmt.Errorf("core: pool size %d smaller than NInit %d", n, p.NInit)
	}
	if p.NMax > n {
		return nil, fmt.Errorf("core: NMax %d exceeds pool size %d", p.NMax, n)
	}
	if p.NInit > p.NMax {
		return nil, fmt.Errorf("core: NInit %d exceeds NMax %d", p.NInit, p.NMax)
	}

	// taken and trainX grow with the labels actually taken: presizing
	// them by NMax would let a client-chosen bound allocate up front.
	if p.WarmUpdate && streamCacheBytes >= 0 {
		s.cache = pool.NewScanCache(streamCacheBytes)
	}
	s.features = s.sp.Features()
	s.fitter = p.Fitter
	if s.fitter == nil {
		fc := p.Forest
		s.fitter = func(X [][]float64, y []float64, fs []space.Feature, fr *rng.RNG) (Model, error) {
			return forest.Fit(X, y, fs, fc, fr)
		}
	}
	return s, nil
}

// fail records a terminal engine error; every subsequent Ask/Tell
// re-returns it.
func (s *Session) fail(err error) error {
	s.phase = phaseFailed
	s.err = err
	return err
}

// Done reports that the session collected its NMax labels.
func (s *Session) Done() bool { return s.phase == phaseDone }

// Phase names the session's state-machine position.
func (s *Session) Phase() string { return s.phase.String() }

// Iteration counts completed loop iterations (0 during/after cold start).
func (s *Session) Iteration() int { return s.iter }

// Samples is the labeled-set size so far.
func (s *Session) Samples() int { return len(s.res.TrainY) }

// Expecting is how many labels the current batch still awaits (0 at a
// boundary).
func (s *Session) Expecting() int { return len(s.queue) }

// Result returns the session's live result, stamping the generator's
// current stream position. The same pointer is returned every call; it
// keeps growing while the session runs.
func (s *Session) Result() *Result {
	if s.r != nil {
		s.res.RNGState = s.r.State()
	}
	return s.res
}

// pendingConfigs returns the queued configurations in labeling order.
// Callers must not mutate the configs.
func (s *Session) pendingConfigs() []space.Config {
	out := make([]space.Config, len(s.queue))
	for i, it := range s.queue {
		out[i] = it.cfg
	}
	return out
}

// Ask returns the next batch of configurations to label. While labels
// are outstanding it is idempotent and re-returns the pending batch; at
// a boundary it advances the machine — the cold-start sample first,
// then one strategy-selected batch per call. A cancelled ctx at a loop
// boundary — or one that ends while the pool is being scanned — drains a
// final checkpoint and returns the interruption without consuming any
// randomness or advancing the iteration, so a later Ask with a live
// context returns exactly the batch this one would have.
func (s *Session) Ask(ctx context.Context) ([]space.Config, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch s.phase {
	case phaseFailed:
		return nil, s.err
	case phaseDone:
		return nil, ErrSessionDone
	case phaseLabeling:
		return s.pendingConfigs(), nil
	case phaseCold:
		return s.askCold()
	default:
		return s.askLoop(ctx)
	}
}

// askCold stages the uniform NInit cold-start sample — the same
// generator draw and labeling order as the historical coldStart.
func (s *Session) askCold() ([]space.Config, error) {
	s.cur = IterStats{Iteration: 0}
	initSel := s.r.Sample(s.src.Len(), s.p.NInit)
	cfgs, err := s.fetchConfigs(initSel)
	if err != nil {
		return nil, s.fail(fmt.Errorf("core: cold-start fetch: %w", err))
	}
	items := make([]pendingItem, len(initSel))
	for i, g := range initSel {
		items[i] = pendingItem{cfg: cfgs[i], idx: g}
	}
	return s.stage(items), nil
}

// askLoop advances one loop iteration to its labeling phase: scoring,
// strategy selection, and upfront validation of the selected batch.
func (s *Session) askLoop(ctx context.Context) ([]space.Config, error) {
	if err := ctx.Err(); err != nil {
		return nil, s.interrupted(err)
	}
	remaining := s.src.Len() - len(s.taken)
	if remaining == 0 {
		return nil, ErrPoolExhausted
	}
	prevCur, prevRNG := s.cur, *s.r
	s.iter++
	s.res.Iterations = s.iter
	s.cur = IterStats{Iteration: s.iter}
	batch := s.p.NBatch
	if rem := s.p.NMax - len(s.res.TrainY); batch > rem {
		batch = rem
	}
	cfgs, err := s.selectBatch(ctx, batch, remaining)
	if errors.Is(err, errScanInterrupted) {
		// The scan stopped part way: undo the iteration's start (the
		// strategy drew nothing it keeps) so the session is back at the
		// boundary it left.
		s.iter--
		s.res.Iterations = s.iter
		s.cur, *s.r = prevCur, prevRNG
		return nil, s.interrupted(ctx.Err())
	}
	return cfgs, err
}

// errScanInterrupted marks a selection whose pool scan stopped because
// the Ask's context ended.
var errScanInterrupted = errors.New("core: pool scan interrupted")

// interrupted handles a cancellation at an iteration boundary: the state
// is snapshot-clean, so it is persisted for resume before the
// interruption is returned.
func (s *Session) interrupted(err error) error {
	s.drainCheckpoint()
	return fmt.Errorf("core: interrupted after %d iterations (%d labels): %w",
		s.iter, len(s.res.TrainY), err)
}

// bestY is the best (smallest) label so far; only valid after the cold
// start.
func (s *Session) bestY() float64 {
	best := s.res.TrainY[0]
	for _, y := range s.res.TrainY[1:] {
		if y < best {
			best = y
		}
	}
	return best
}

// selectBatch runs the selection of one iteration — a sharded scan
// reduced by the strategy — and stages the chosen batch.
func (s *Session) selectBatch(ctx context.Context, batch, remaining int) ([]space.Config, error) {
	selStart := time.Now()
	sel, err := s.strat.SelectStream(&poolStream{ctx: ctx, s: s, bestY: s.bestY()}, batch)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return nil, errScanInterrupted
		}
		return nil, s.fail(fmt.Errorf("core: selection at iteration %d: %w", s.iter, err))
	}
	s.cur.SelectTime = time.Since(selStart)
	if len(sel) == 0 {
		return nil, s.fail(fmt.Errorf("core: strategy %q selected nothing at iteration %d", s.strat.Name(), s.iter))
	}
	globals := make([]int, len(sel))
	seen := make(map[int]bool, len(sel))
	for i, o := range sel {
		if o < 0 || o >= remaining {
			return nil, s.fail(fmt.Errorf("core: strategy %q returned out-of-range index %d", s.strat.Name(), o))
		}
		g := s.ordToGlobal(o)
		if seen[g] {
			return nil, s.fail(fmt.Errorf("core: strategy %q returned duplicate index %d", s.strat.Name(), o))
		}
		seen[g] = true
		globals[i] = g
	}
	cfgs, err := s.fetchConfigs(globals)
	if err != nil {
		return nil, s.fail(fmt.Errorf("core: iteration %d: %w", s.iter, err))
	}
	// Selection-time model beliefs, for the guard and the selection
	// record: PredictBatch rows are bit-identical to the values the
	// scan's ScoreBatch produced for the same candidates.
	selX := s.sp.EncodeAll(cfgs)
	selMu, selSigma := s.model.PredictBatch(selX)
	items := make([]pendingItem, len(globals))
	for i, g := range globals {
		items[i] = pendingItem{
			cfg: cfgs[i], x: selX[i], idx: g,
			mu: selMu[i], sigma: selSigma[i], guarded: true,
		}
	}
	return s.stage(items), nil
}

// stage installs a validated batch as the pending queue and flips the
// machine to the labeling phase.
func (s *Session) stage(items []pendingItem) []space.Config {
	s.queue = items
	s.batchIdx = s.batchIdx[:0]
	for _, it := range items {
		s.batchIdx = append(s.batchIdx, it.idx)
	}
	s.phase = phaseLabeling
	s.evalStart = time.Now()
	return s.pendingConfigs()
}

// Tell applies labels to the pending batch, in batch order. When the
// last expected label arrives the iteration completes: pool membership
// is updated, the surrogate is (re)fitted, the observer and checkpoint
// sink run, and the session advances to the next boundary (or done).
//
// Tell may consume fewer labels than given: when the label guard flags
// a label under GuardRemeasure, K re-measurement slots are inserted at
// the front of the queue and the call stops consuming, because the
// caller's remaining labels no longer correspond to what the session
// expects. The report says how many were consumed; re-Ask to realign.
func (s *Session) Tell(ctx context.Context, labels []Label) (*TellReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch s.phase {
	case phaseFailed:
		return nil, s.err
	case phaseDone:
		return nil, ErrSessionDone
	case phaseLabeling:
	default:
		return nil, fmt.Errorf("core: no labels expected (call Ask first)")
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("core: empty tell")
	}
	if len(labels) > len(s.queue) {
		return nil, fmt.Errorf("core: %d labels told, %d expected", len(labels), len(s.queue))
	}
	rep := &TellReport{}
	for _, l := range labels {
		rep.Consumed++
		if s.apply(l, rep) && rep.Consumed < len(labels) {
			// Re-measurement slots were inserted mid-call; stop before
			// misaligned labels land on the wrong configurations.
			break
		}
	}
	rep.Pending = len(s.queue)
	if len(s.queue) > 0 {
		return rep, nil
	}
	if err := s.completeBatch(); err != nil {
		return rep, err
	}
	rep.Completed = true
	rep.Done = s.phase == phaseDone
	return rep, nil
}

// apply consumes one label against the queue front. It returns true
// when guard re-measurement slots were inserted (the queue no longer
// lines up with the caller's label stream).
func (s *Session) apply(l Label, rep *TellReport) (inserted bool) {
	it := s.queue[0]
	s.queue = s.queue[1:]
	if l.Retries > 0 {
		s.cur.EvalRetries += l.Retries
	}
	if l.Timeouts > 0 {
		s.cur.EvalTimeouts += l.Timeouts
	}
	s.billFailed(l.FailedCost)
	if it.rm != nil {
		// A guard re-measurement: collect toward the median. Skips
		// count against K but contribute no value; re-measured labels
		// are themselves never re-guarded.
		if l.Skip {
			s.cur.EvalSkips++
		} else {
			it.rm.vals = append(it.rm.vals, l.Y)
		}
		it.rm.left--
		if it.rm.left == 0 {
			s.resolveRemeasure(it.rm, rep)
		}
		return false
	}
	if l.Skip {
		s.cur.EvalSkips++
		return false
	}
	y := l.Y
	if it.guarded && s.p.Guard.enabled() && s.p.Guard.suspect(y, it.mu, it.sigma) {
		s.cur.GuardFlagged++
		rep.Flagged++
		if s.p.Guard.Action == GuardQuarantine {
			s.billGuard(y)
			s.cur.GuardQuarantined++
			rep.Quarantined++
			return false
		}
		k := s.p.Guard.K
		if k <= 0 {
			k = 3
		}
		rm := &remeasure{item: it, y: y, left: k}
		slots := make([]pendingItem, k, k+len(s.queue))
		for j := range slots {
			slots[j] = pendingItem{cfg: it.cfg, idx: it.idx, rm: rm}
		}
		s.queue = append(slots, s.queue...)
		rep.Remeasure += k
		return true
	}
	s.accept(it, y)
	return false
}

// resolveRemeasure finishes a flagged label once its K re-measurement
// slots are consumed: median label, or quarantine when every
// re-measurement failed.
func (s *Session) resolveRemeasure(rm *remeasure, rep *TellReport) {
	if len(rm.vals) == 0 {
		// Every re-measurement failed its retry budget: the
		// configuration is poison either way.
		s.billGuard(rm.y)
		s.cur.GuardQuarantined++
		rep.Quarantined++
		return
	}
	s.cur.GuardRemeasured++
	m := median(rm.vals)
	// The run spent y plus every re-measurement of machine time on this
	// label; the median becomes the label (counted in CC through
	// TrainY), the rest is guard overhead.
	waste := rm.y - m
	for _, v := range rm.vals {
		waste += v
	}
	s.billGuard(waste)
	s.accept(rm.item, m)
}

// accept trains on a labeled configuration.
func (s *Session) accept(it pendingItem, y float64) {
	s.res.TrainConfigs = append(s.res.TrainConfigs, it.cfg)
	s.res.TrainY = append(s.res.TrainY, y)
	s.labelSum += y
	if s.cur.Iteration > 0 {
		s.trainX = append(s.trainX, it.x)
		if s.p.RecordSelections {
			s.res.Selections = append(s.res.Selections, Selection{
				Config: it.cfg, Mu: it.mu, Sigma: it.sigma, Y: y, Iteration: s.cur.Iteration,
			})
		}
	}
}

// billFailed accounts machine time consumed by failed attempts.
func (s *Session) billFailed(cost float64) {
	if cost <= 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return
	}
	s.cur.FailedCost += cost
	s.res.FailedCost += cost
}

// billGuard accounts guard-consumed machine time.
func (s *Session) billGuard(cost float64) {
	if cost <= 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return
	}
	s.cur.GuardCost += cost
	s.res.GuardCost += cost
}

// completeBatch closes the labeled batch: membership update, (re)fit,
// telemetry, observer, checkpoint, and the phase transition.
func (s *Session) completeBatch() error {
	s.cur.EvalTime = time.Since(s.evalStart)
	for _, g := range s.batchIdx {
		s.markTaken(g)
	}

	cold := s.cur.Iteration == 0
	if cold {
		if len(s.res.TrainY) == 0 {
			return s.fail(fmt.Errorf("core: every cold-start evaluation failed: %w", ErrPoolExhausted))
		}
		for _, cfg := range s.res.TrainConfigs {
			s.trainX = append(s.trainX, s.sp.Encode(cfg))
		}
	}

	fitStart := time.Now()
	var err error
	fr := s.r.Split()
	if u, ok := s.model.(Updatable); !cold && s.p.WarmUpdate && ok {
		err = u.Update(s.trainX, s.res.TrainY, fr)
		s.seeded = false
	} else {
		var m Model
		m, err = s.fitter(s.trainX, s.res.TrainY, s.features, fr)
		if err == nil {
			s.model = m
			s.fitSeed, s.seeded = fr.Seed(), true
		}
	}
	if err != nil {
		if cold {
			return s.fail(fmt.Errorf("core: cold-start fit: %w", err))
		}
		return s.fail(fmt.Errorf("core: refit at iteration %d: %w", s.iter, err))
	}
	s.cur.FitTime = time.Since(fitStart)
	s.cur.Samples = len(s.res.TrainY)
	s.res.Model = s.model

	if err := s.observe(s.cur); err != nil {
		return s.fail(err)
	}
	if err := s.checkpoint(false); err != nil {
		return s.fail(err)
	}
	if len(s.res.TrainY) >= s.p.NMax {
		s.phase = phaseDone
	} else {
		s.phase = phaseReady
	}
	return nil
}

// observe appends the event to the telemetry stream and notifies the
// observer.
func (s *Session) observe(stats IterStats) error {
	s.res.Stats = append(s.res.Stats, stats)
	if s.obs == nil {
		return nil
	}
	return s.obs(&State{
		Model:        s.model,
		TrainConfigs: s.res.TrainConfigs,
		TrainY:       s.res.TrainY,
		Iteration:    s.iter,
		Stats:        stats,
		LabelCost:    s.labelSum + s.res.FailedCost + s.res.GuardCost,
	})
}

// evalError phrases a driver-side labeling failure exactly as the
// historical monolithic loops did, based on where the machine stands.
func (s *Session) evalError(err error) error {
	if s.cur.Iteration == 0 {
		return fmt.Errorf("core: cold-start evaluation: %w", err)
	}
	if len(s.queue) > 0 && s.queue[0].rm != nil {
		return fmt.Errorf("core: iteration %d: label guard: %w", s.iter, err)
	}
	return fmt.Errorf("core: iteration %d: %w", s.iter, err)
}
