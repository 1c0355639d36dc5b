package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/space"
)

// This file is the in-process driver side of the ask-tell split: the
// retry/timeout/backoff machinery that used to live inside the
// monolithic loop, now operating on the caller's side of a Session.
// Run and Resume are driveSession over an in-process
// labeler; a remote caller (internal/server's clients) implements the
// same contract over HTTP.

// labeler measures configurations under a FailurePolicy and folds the
// attempt telemetry (retries, timeouts, failed-attempt cost) into the
// Label, mirroring the historical evalConfig decision for decision.
type labeler struct {
	ev  Evaluator
	pol FailurePolicy
}

// label measures cfg. A returned error aborts the run (cancellation, a
// run-level evaluator stop, or an exhausted retry budget under
// FailAbort); FailSkip surfaces as a Label with Skip set. Even on error
// the returned Label carries the failed-attempt cost accumulated so
// far, so the driver can bill it before bailing out.
func (lb *labeler) label(ctx context.Context, cfg space.Config) (Label, error) {
	var l Label
	pol := lb.pol
	delay := pol.Backoff
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return l, err
		}
		y, err, timedOut := lb.attempt(ctx, cfg)
		if err == nil {
			l.Y = y
			return l, nil
		}
		// A failed run that still consumed machine time bills the
		// labeling budget: the paper's CC counts time spent, not
		// labels obtained.
		if y > 0 && !math.IsNaN(y) && !math.IsInf(y, 0) {
			l.FailedCost += y
		}
		if ctx.Err() != nil {
			return l, err
		}
		if timedOut {
			// The attempt outlived its per-evaluation deadline while
			// the run's context is still live: a hung measurement, and
			// as retryable as a crashed one.
			l.Timeouts++
			err = fmt.Errorf("%w after %v", ErrEvalTimeout, pol.Timeout)
		} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Context errors that are neither the run's nor the
			// attempt deadline's come from the evaluator's own
			// machinery; treat them as a run-level stop, as the engine
			// always has.
			return l, err
		}
		if attempt >= pol.MaxRetries {
			if pol.OnExhausted == FailSkip {
				l.Skip = true
				return l, nil
			}
			return l, fmt.Errorf("evaluation of %v failed after %d attempts: %w", cfg, attempt+1, err)
		}
		l.Retries++
		if delay > 0 {
			sleep := delay
			if pol.Timeout > 0 && sleep > pol.Timeout {
				// A backoff longer than an attempt may run would stall
				// the loop worse than the hang the timeout just cut.
				sleep = pol.Timeout
			}
			if err := sleepCtx(ctx, sleep); err != nil {
				return l, err
			}
			delay *= 2
			if pol.MaxBackoff > 0 && delay > pol.MaxBackoff {
				delay = pol.MaxBackoff
			}
		}
	}
}

// attempt runs one evaluation attempt under the per-evaluation deadline.
// timedOut reports that the attempt's own deadline expired while the
// run's context was still live.
func (lb *labeler) attempt(ctx context.Context, cfg space.Config) (y float64, err error, timedOut bool) {
	timeout := lb.pol.Timeout
	if timeout <= 0 {
		y, err = lb.ev.Evaluate(ctx, cfg)
		return y, err, false
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	y, err = lb.ev.Evaluate(actx, cfg)
	if err != nil && errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
		timedOut = true
	}
	return y, err, timedOut
}

// driveSession runs a session to completion with an in-process
// evaluator: Ask a batch, label it one configuration at a time (so
// guard-inserted re-measurements stay aligned), Tell each label back.
// On errors that interrupt the run midway the partial Result is
// returned alongside the error, exactly like the historical loops.
//
// A BatchEvaluator with the label guard disabled takes the batch fast
// path: the whole pending queue is measured as one call — one network
// round trip per ask batch when the evaluator is remote — and told
// back at once. The per-config order inside the batch matches the
// sequential path exactly, so the measurement stream is bit-identical.
// With the guard enabled the driver stays on the per-config path:
// guard-inserted re-measurements must be measured immediately after
// the flag, before any later queue item consumes the stream.
func driveSession(ctx context.Context, s *Session, ev Evaluator) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lb := &labeler{ev: ev, pol: s.p.Failure}
	be, isBatch := ev.(BatchEvaluator)
	useBatch := isBatch && !s.p.Guard.enabled()
	for !s.Done() {
		if _, err := s.Ask(ctx); err != nil {
			return s.Result(), err
		}
		for len(s.queue) > 0 {
			if useBatch {
				cfgs := make([]space.Config, len(s.queue))
				for i := range s.queue {
					cfgs[i] = s.queue[i].cfg
				}
				labels, err := be.EvaluateBatch(ctx, cfgs)
				if err != nil {
					return s.Result(), s.evalError(err)
				}
				if _, err := s.Tell(ctx, labels); err != nil {
					return s.Result(), err
				}
				continue
			}
			l, err := lb.label(ctx, s.queue[0].cfg)
			if err != nil {
				s.billFailed(l.FailedCost)
				return s.Result(), s.evalError(err)
			}
			if _, err := s.Tell(ctx, []Label{l}); err != nil {
				return s.Result(), err
			}
		}
	}
	return s.Result(), nil
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
