package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// sessionFixture builds a streamed session over the golden space with a
// small forest, returning the session and a deterministic labeling
// function for driving it by hand.
func sessionFixture(t *testing.T, params Params, service json.RawMessage) (*Session, func(c []int) float64) {
	t.Helper()
	sp := goldenSpace()
	src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
	s, err := NewSession(SessionConfig{
		Source: src, Strategy: PWU{Alpha: 0.1}, Params: params,
		RNG: rng.New(991), Service: service,
	})
	if err != nil {
		t.Fatal(err)
	}
	label := func(c []int) float64 {
		a := sp.ValueByName(c, "a")
		b := sp.ValueByName(c, "b")
		return (a-4)*(a-4) + (b-2)*(b-2) + 1
	}
	return s, label
}

func sessionParams() Params {
	return Params{NInit: 5, NBatch: 2, NMax: 11, Forest: smallForest()}
}

// TestSessionAskTellBasics drives a session by hand: cold batch sizes,
// Ask idempotency, batch tells, phase transitions and completion.
func TestSessionAskTellBasics(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)

	if s.Phase() != "cold" || s.Done() {
		t.Fatalf("fresh session: phase=%s done=%v", s.Phase(), s.Done())
	}
	cold, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 5 {
		t.Fatalf("cold batch = %d, want NInit=5", len(cold))
	}
	again, err := s.Ask(ctx)
	if err != nil || len(again) != 5 {
		t.Fatalf("re-Ask not idempotent: %v %d", err, len(again))
	}
	for i := range cold {
		if cold[i].Key() != again[i].Key() {
			t.Fatalf("re-Ask changed batch at %d", i)
		}
	}

	// Batch tell of the whole cold start at once.
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	rep, err := s.Tell(ctx, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Consumed != 5 || rep.Pending != 0 {
		t.Fatalf("cold tell report: %+v", rep)
	}
	if s.Phase() != "ready" || s.Samples() != 5 || s.model == nil {
		t.Fatalf("after cold: phase=%s samples=%d model=%v", s.Phase(), s.Samples(), s.model)
	}

	// Telling at a boundary is an error; so is an oversized tell later.
	if _, err := s.Tell(ctx, []Label{{Y: 1}}); err == nil {
		t.Fatal("tell at boundary accepted")
	}
	for !s.Done() {
		batch, err := s.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tell(ctx, make([]Label, len(batch)+1)); err == nil {
			t.Fatal("oversized tell accepted")
		}
		for _, c := range batch {
			if _, err := s.Tell(ctx, []Label{{Y: label(c)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Samples() != 11 {
		t.Fatalf("done at %d samples, want NMax=11", s.Samples())
	}
	if _, err := s.Ask(ctx); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("Ask after done: %v", err)
	}
	if _, err := s.Tell(ctx, []Label{{Y: 1}}); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("Tell after done: %v", err)
	}
}

// TestSessionGuardRemeasureProtocol exercises the ask-tell form of the
// label guard: a flagged label inserts re-measurement slots, the tell
// stops consuming, and the re-asked queue leads with the flagged
// configuration.
func TestSessionGuardRemeasureProtocol(t *testing.T) {
	ctx := context.Background()
	p := sessionParams()
	p.Guard = LabelGuard{Z: 2, K: 3}
	s, label := sessionFixture(t, p, nil)

	cold, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}

	batch, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch = %d, want 2", len(batch))
	}
	// First label is a wild outlier followed by an honest second label:
	// the tell must stop after the outlier (Consumed=1) because the
	// guard queued re-measurements in between.
	rep, err := s.Tell(ctx, []Label{{Y: 1e9}, {Y: label(batch[1])}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consumed != 1 || rep.Flagged != 1 || rep.Remeasure != 3 {
		t.Fatalf("outlier tell report: %+v", rep)
	}
	if rep.Pending != 4 { // 3 re-measurements + the untold second item
		t.Fatalf("pending = %d, want 4", rep.Pending)
	}
	requeued, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if requeued[i].Key() != batch[0].Key() {
			t.Fatalf("re-ask slot %d is not the flagged config", i)
		}
	}
	if requeued[3].Key() != batch[1].Key() {
		t.Fatal("second original item lost after re-measure insertion")
	}
	// Honest re-measurements: median becomes the label, run continues.
	honest := label(batch[0])
	rep, err = s.Tell(ctx, []Label{{Y: honest}, {Y: honest + 0.1}, {Y: honest - 0.1}, {Y: label(batch[1])}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("batch not completed: %+v", rep)
	}
	res := s.Result()
	tel := res.Telemetry()
	if tel.GuardFlagged != 1 || tel.GuardRemeasured != 1 || tel.GuardQuarantined != 0 {
		t.Fatalf("guard counters: %+v", tel)
	}
	got := res.TrainY[len(res.TrainY)-2] // flagged item trains before the second item
	if math.Abs(got-honest) > 1e-12 {
		t.Fatalf("flagged label = %v, want median %v", got, honest)
	}
}

// TestSessionSnapshotBoundaryOnly pins the snapshot contract: snapshots
// exist only at iteration boundaries, never mid-batch.
func TestSessionSnapshotBoundaryOnly(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot of cold session accepted")
	}
	cold, _ := s.Ask(ctx)
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("mid-batch snapshot accepted")
	}
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != snapshotVersionFitSeed || snap.FitSeed == nil || snap.Model != nil || !snap.Streamed || snap.Iteration != 0 {
		t.Fatalf("boundary snapshot: version=%d fit_seed=%v model=%q streamed=%v iter=%d",
			snap.Version, snap.FitSeed, snap.Model, snap.Streamed, snap.Iteration)
	}
}

// TestSessionHostileLabelSanitization: non-positive / non-finite costs
// and negative counters from an untrusted caller must not corrupt the
// telemetry.
func TestSessionHostileLabelSanitization(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)
	cold, _ := s.Ask(ctx)
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{
			Y:          label(c),
			Retries:    -5,
			Timeouts:   -7,
			FailedCost: math.Inf(1),
		}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}
	tel := s.Result().Telemetry()
	if tel.EvalRetries != 0 || tel.EvalTimeouts != 0 || tel.FailedCost != 0 {
		t.Fatalf("hostile label fields leaked into telemetry: %+v", tel)
	}
}

// cancelAfterShards is a source that, once armed, calls cancel as it
// hands out its k-th shard — a deterministic stand-in for an Ask whose
// context ends while the pool is being scanned.
type cancelAfterShards struct {
	pool.Source
	k, calls int
	cancel   context.CancelFunc
}

func (c *cancelAfterShards) Next(dst []space.Config) int {
	n := c.Source.Next(dst)
	if c.cancel != nil {
		if c.calls++; c.calls == c.k {
			c.cancel()
			c.cancel = nil
		}
	}
	return n
}

// TestAskCancelledMidScan: an Ask whose context ends part way through
// the pool scan returns the interruption and leaves the session at the
// boundary it was at — same phase, iteration count, generator state and
// checkpoint — and the next Ask with a live context returns exactly the
// batch an uncancelled Ask returns. Every later step of the session
// matches the uncancelled one too, with and without the cross-scan
// cache (a warm-update session keeps one, and a cancelled scan must not
// commit it).
func TestAskCancelledMidScan(t *testing.T) {
	for _, warm := range []bool{false, true} {
		for _, k := range []int{1, 2, 5} {
			p := sessionParams()
			p.NMax = 13
			p.WarmUpdate = warm
			p.StreamShard = 16
			var ckpts int
			p.Checkpoint = func(*Snapshot) error { ckpts++; return nil }
			p.CheckpointEvery = 1
			sp := goldenSpace()
			newSess := func(src pool.Source) *Session {
				s, err := NewSession(SessionConfig{Source: src, Strategy: PWU{Alpha: 0.1}, Params: p, RNG: rng.New(991)})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			ref := newSess(pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize))
			csrc := &cancelAfterShards{Source: pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize), k: k}
			sub := newSess(csrc)
			label := func(c []int) Label {
				a, b := sp.ValueByName(c, "a"), sp.ValueByName(c, "b")
				return Label{Y: (a-4)*(a-4) + (b-2)*(b-2) + 1}
			}
			step := 0
			for !ref.Done() {
				want, err := ref.Ask(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if step > 0 {
					// Cancel every loop-phase Ask once, k shards in.
					ctx, cancel := context.WithCancel(context.Background())
					csrc.calls, csrc.cancel = 0, cancel
					iter, st, phase, before := sub.Iteration(), sub.Result().RNGState, sub.Phase(), ckpts
					_, err := sub.Ask(ctx)
					cancel()
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("warm %v k %d step %d: cancelled Ask returned %v", warm, k, step, err)
					}
					if sub.Iteration() != iter || sub.Result().RNGState != st || sub.Phase() != phase || sub.Expecting() != 0 {
						t.Fatalf("warm %v k %d step %d: cancelled Ask moved the session", warm, k, step)
					}
					if ckpts != before+1 {
						t.Fatalf("warm %v k %d step %d: %d checkpoints drained, want 1", warm, k, step, ckpts-before)
					}
				}
				got, err := sub.Ask(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("warm %v k %d step %d: batch of %d, want %d", warm, k, step, len(got), len(want))
				}
				labels := make([]Label, len(want))
				for i := range want {
					if got[i].Key() != want[i].Key() {
						t.Fatalf("warm %v k %d step %d: batch[%d] = %v, uncancelled %v", warm, k, step, i, got[i], want[i])
					}
					labels[i] = label(want[i])
				}
				for _, s := range []*Session{ref, sub} {
					if _, err := s.Tell(context.Background(), labels); err != nil {
						t.Fatal(err)
					}
				}
				step++
			}
			assertSameResult(t, "cancelled-scan session", sub.Result(), ref.Result())
		}
	}
}
