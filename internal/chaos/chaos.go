// Package chaos is a deterministic fault injector for evaluators: it
// wraps any core.Evaluator and makes it misbehave the way real program
// runs do — transient errors, latency spikes, indefinite hangs, panics,
// and silently corrupted timings — at rates prescribed by a Scenario.
//
// Every fault kind draws from its own generator stream seeded from the
// scenario seed, so a scenario replays bit-identically: the i-th call
// sees exactly the same faults no matter what the wrapped evaluator
// returns, how long it takes, or which faults fired before. That is what
// lets the equivalence gate (`make chaos-equivalence`) prove that a
// transient-only scenario, once fully retried, yields curves
// byte-identical to the fault-free run.
//
// Worker is the same idea one layer up: process-level faults for a
// fleet worker, injected by internal/fleet.
//
// An Injector is not safe for concurrent use, matching the evaluator
// contract of core.Run (one evaluator per run); give each campaign cell
// its own Injector.
package chaos

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/space"
)

// ErrInjected is the error returned for an injected transient failure;
// retry layers see it as an ordinary failed measurement.
var ErrInjected = fmt.Errorf("chaos: injected transient failure")

// PanicValue is the value an injected panic unwinds with, so recovery
// layers (internal/campaign) can tell injected panics from real bugs in
// their tests.
const PanicValue = "chaos: injected evaluator panic"

// Scenario prescribes fault rates. The zero value injects nothing. All
// rates are probabilities in [0, 1] applied independently per Evaluate
// call, each from its own deterministic stream.
type Scenario struct {
	// Seed seeds the per-fault generator streams. Two injectors built
	// from the same scenario and seed inject identical fault sequences.
	Seed uint64

	// ErrRate is the probability of a transient failure: the call
	// returns ErrInjected without consuming the wrapped evaluator (so a
	// retry observes exactly the measurement the fault displaced).
	ErrRate float64

	// HangRate is the probability the call blocks until its context is
	// cancelled — an evaluator that never returns. Only a per-evaluation
	// timeout (core.FailurePolicy.Timeout) or run cancellation ends it.
	HangRate float64

	// PanicRate is the probability the call panics with PanicValue.
	PanicRate float64

	// CorruptRate is the probability a successful measurement is
	// multiplied by CorruptFactor before being returned — a garbage
	// timing that looks like a valid label.
	CorruptRate float64

	// CorruptFactor is the multiplicative corruption; <= 0 defaults
	// to 10.
	CorruptFactor float64

	// LatencyRate is the probability the call sleeps Latency before
	// proceeding (a slow but correct measurement).
	LatencyRate float64

	// Latency is the injected delay; <= 0 disables latency spikes.
	Latency time.Duration
}

// Active reports whether the scenario injects any fault at all.
func (s Scenario) Active() bool {
	return s.ErrRate > 0 || s.HangRate > 0 || s.PanicRate > 0 ||
		s.CorruptRate > 0 || (s.LatencyRate > 0 && s.Latency > 0)
}

// Worker prescribes process-level faults for a fleet worker, one layer
// up from Scenario: where a Scenario misbehaves inside one evaluation,
// a Worker misbehaves as a machine — crashing and abandoning its
// leases, freezing (heartbeats included), panicking mid-task, or
// corrupting result payloads on the wire. Every fault is recoverable
// at the fleet coordinator through lease expiry, re-queueing and
// checksum rejection. fleet.Worker owns the injector; rates are drawn
// once per lease, each kind from its own stream seeded from Seed.
type Worker struct {
	// Seed seeds the per-fault streams.
	Seed uint64

	// CrashRate is the probability a lease makes the worker die on the
	// spot: no completion, no deregistration, leases abandoned.
	CrashRate float64

	// HangRate is the probability the worker freezes — execution and
	// heartbeats both — for HangFor before resuming. A freeze longer
	// than the lease TTL expires the lease; the late completion then
	// exercises duplicate-drop ingestion.
	HangRate float64

	// HangFor is the freeze duration; <= 0 defaults to 3x the
	// coordinator's advertised lease TTL, long enough to guarantee the
	// lease bounces.
	HangFor time.Duration

	// PanicRate is the probability the task execution panics before
	// running; the worker recovers it and reports the lease failed.
	PanicRate float64

	// CorruptRate is the probability the completion payload has one
	// byte flipped after checksumming — a corrupted result the
	// coordinator must reject.
	CorruptRate float64
}

// Active reports whether any fault can fire.
func (w Worker) Active() bool {
	return w.CrashRate > 0 || w.HangRate > 0 || w.PanicRate > 0 || w.CorruptRate > 0
}

// Stats counts the faults an Injector has fired.
type Stats struct {
	Calls       int // Evaluate calls observed
	Errors      int // transient failures injected
	Hangs       int // hangs injected
	Panics      int // panics injected
	Corruptions int // labels corrupted
	Latencies   int // latency spikes injected
}

// Injector wraps an evaluator with scenario-driven fault injection. It
// implements core.Evaluator; construct with New.
type Injector struct {
	inner core.Evaluator
	sc    Scenario

	// One stream per fault kind: a fault firing (or not) never shifts
	// another kind's stream, so fault sequences replay bit-identically
	// and scenarios compose predictably.
	errR, hangR, panicR, corruptR, latR *rng.RNG

	stats Stats
}

// New wraps inner with deterministic fault injection. seed overrides the
// scenario's own seed so one Scenario can drive many independent
// injectors (e.g. one per campaign repetition, seeded by rng.Mix of the
// scenario seed and the repetition seed).
func New(sc Scenario, seed uint64, inner core.Evaluator) *Injector {
	if sc.CorruptFactor <= 0 {
		sc.CorruptFactor = 10
	}
	return &Injector{
		inner:    inner,
		sc:       sc,
		errR:     rng.New(rng.Mix(seed, 0xe1)),
		hangR:    rng.New(rng.Mix(seed, 0xa2)),
		panicR:   rng.New(rng.Mix(seed, 0xb3)),
		corruptR: rng.New(rng.Mix(seed, 0xc4)),
		latR:     rng.New(rng.Mix(seed, 0xd5)),
	}
}

// Stats returns the fault counts fired so far.
func (i *Injector) Stats() Stats { return i.stats }

// Evaluate draws this call's fault decisions — always in the same order,
// one per active fault kind, so the streams stay aligned across replays
// — then either injects the chosen fault or delegates to the wrapped
// evaluator. Fault precedence when several fire at once: panic, hang,
// latency (which then proceeds), transient error, corruption.
func (i *Injector) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	i.stats.Calls++
	doPanic := i.sc.PanicRate > 0 && i.panicR.Bool(i.sc.PanicRate)
	doHang := i.sc.HangRate > 0 && i.hangR.Bool(i.sc.HangRate)
	doLat := i.sc.LatencyRate > 0 && i.sc.Latency > 0 && i.latR.Bool(i.sc.LatencyRate)
	doErr := i.sc.ErrRate > 0 && i.errR.Bool(i.sc.ErrRate)
	doCorrupt := i.sc.CorruptRate > 0 && i.corruptR.Bool(i.sc.CorruptRate)

	if doPanic {
		i.stats.Panics++
		panic(PanicValue)
	}
	if doHang {
		i.stats.Hangs++
		<-ctx.Done()
		return 0, ctx.Err()
	}
	if doLat {
		i.stats.Latencies++
		t := time.NewTimer(i.sc.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return 0, ctx.Err()
		case <-t.C:
		}
	}
	if doErr {
		// The wrapped evaluator is NOT consumed: the measurement this
		// fault displaced is still the next one its stream will produce,
		// which is what makes full retries bit-identical to no faults.
		i.stats.Errors++
		return 0, ErrInjected
	}
	y, err := i.inner.Evaluate(ctx, c)
	if err == nil && doCorrupt {
		i.stats.Corruptions++
		y *= i.sc.CorruptFactor
	}
	return y, err
}

// statefulInjector pairs an Injector with the wrapped evaluator's
// core.StatefulEvaluator capability, so a chaotic run stays
// checkpointable. The fault streams themselves are deliberately not
// part of the snapshot: a resumed run replays its scenario from the
// start, keeping the snapshot format unaware of the testing harness.
type statefulInjector struct {
	*Injector
	stateful core.StatefulEvaluator
}

func (i statefulInjector) EvaluatorState() rng.State { return i.stateful.EvaluatorState() }
func (i statefulInjector) RestoreEvaluatorState(st rng.State) error {
	return i.stateful.RestoreEvaluatorState(st)
}

// Evaluator wraps inner with fault injection while preserving its
// StatefulEvaluator capability when it has one — use this wherever the
// wrapped run may be checkpointed.
func Evaluator(sc Scenario, seed uint64, inner core.Evaluator) core.Evaluator {
	inj := New(sc, seed, inner)
	if s, ok := inner.(core.StatefulEvaluator); ok {
		return statefulInjector{inj, s}
	}
	return inj
}
