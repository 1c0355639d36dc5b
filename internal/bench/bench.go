// Package bench unifies the paper's 14 benchmarks — 12 SPAPT kernels plus
// kripke and hypre — behind a single Problem interface, pairing each with
// its measurement-noise profile and platform, and adapting them to the
// active-learning Evaluator of internal/core.
package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hypre"
	"repro/internal/kripke"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/spapt"
)

// Problem is one benchmark: a parameter space plus the modeled noise-free
// performance function and the noise profile of its measurements.
type Problem interface {
	// Name is the benchmark's short name ("adi", ..., "kripke", "hypre").
	Name() string

	// Description is a one-line human description.
	Description() string

	// Space is the tunable parameter space.
	Space() *space.Space

	// TrueTime is the modeled noise-free execution time in seconds.
	TrueTime(c space.Config) float64

	// Noise is the measurement noise profile (§III-B protocol).
	Noise() noise.Model

	// Platform is the execution platform of Table IV.
	Platform() *machine.Platform
}

// kernelProblem adapts a SPAPT kernel to Problem.
type kernelProblem struct {
	*spapt.Kernel
}

// Noise returns the kernel measurement profile (35 averaged repeats).
func (kernelProblem) Noise() noise.Model { return noise.Kernel() }

// kripkeProblem adapts kripke to Problem.
type kripkeProblem struct {
	*kripke.Kripke
}

// Noise returns the application measurement profile.
func (kripkeProblem) Noise() noise.Model { return noise.Application() }

// hypreProblem adapts hypre to Problem.
type hypreProblem struct {
	*hypre.Hypre
}

// Noise returns the application measurement profile.
func (hypreProblem) Noise() noise.Model { return noise.Application() }

// Kernels returns the 12 SPAPT kernel problems in suite order.
func Kernels() []Problem {
	ks := spapt.All()
	out := make([]Problem, len(ks))
	for i, k := range ks {
		out[i] = kernelProblem{k}
	}
	return out
}

// Applications returns the kripke and hypre problems.
func Applications() []Problem {
	return []Problem{kripkeProblem{kripke.New()}, hypreProblem{hypre.New()}}
}

// All returns all 14 problems: the kernels followed by the applications.
func All() []Problem {
	return append(Kernels(), Applications()...)
}

// Names lists all benchmark names in suite order.
func Names() []string {
	ps := All()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}

// ByName returns the named problem.
func ByName(name string) (Problem, error) {
	switch name {
	case "kripke":
		return kripkeProblem{kripke.New()}, nil
	case "hypre":
		return hypreProblem{hypre.New()}, nil
	}
	k, err := spapt.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("bench: unknown benchmark %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return kernelProblem{k}, nil
}

// KernelOn returns the named SPAPT kernel re-hosted on an arbitrary
// platform — the target side of a model-portability experiment
// (internal/transfer). The parameter space is identical to the Platform
// A original.
func KernelOn(name string, p *machine.Platform) (Problem, error) {
	k, err := spapt.ByName(name)
	if err != nil {
		return nil, err
	}
	return kernelProblem{k.WithPlatform(p)}, nil
}

// NoisyEvaluator measures a problem's configurations under its noise
// profile, drawing noise from an internal generator. It implements
// core.StatefulEvaluator: the noise stream position can be exported into
// a run snapshot and restored on resume, so interrupted noisy runs
// continue bit-identically.
type NoisyEvaluator struct {
	p Problem
	n noise.Model
	r *rng.RNG
}

// Evaluate simulates the full §III-B protocol (repeated runs, averaged)
// for one configuration. The simulated measurement itself cannot fail;
// cancellation is honored between measurements.
func (e *NoisyEvaluator) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.n.Measure(e.p.TrueTime(c), e.r), nil
}

// EvaluatorState exports the noise generator's stream position.
func (e *NoisyEvaluator) EvaluatorState() rng.State { return e.r.State() }

// RestoreEvaluatorState rewinds the noise stream to an exported state.
func (e *NoisyEvaluator) RestoreEvaluatorState(st rng.State) error {
	r, err := rng.FromState(st)
	if err != nil {
		return err
	}
	e.r = r
	return nil
}

// Evaluator returns a core.Evaluator that measures p's configurations
// under its noise profile, drawing noise from r. Each Evaluate call
// simulates the full §III-B protocol (repeated runs, averaged).
func Evaluator(p Problem, r *rng.RNG) *NoisyEvaluator {
	return &NoisyEvaluator{p: p, n: p.Noise(), r: r}
}

// TrueEvaluator returns a noise-free evaluator for p (used by ablations
// and the tuning ground truth). A done ctx returns ctx.Err() without
// measuring.
func TrueEvaluator(p Problem) core.Evaluator {
	return core.EvaluatorFunc(func(ctx context.Context, c space.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return p.TrueTime(c), nil
	})
}
