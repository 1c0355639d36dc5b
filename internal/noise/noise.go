// Package noise models measurement noise and the repeat-averaging
// protocol the paper uses to suppress it (§III-B: each kernel
// configuration is executed 35 times and averaged; the applications are
// evaluated "several times").
//
// Execution-time noise is multiplicative and right-skewed — OS jitter and
// network contention only ever make a run slower in expectation, never
// faster than the clean machine — so the model is log-normal with unit
// mean: measured = true * exp(N(-σ²/2, σ)).
package noise

import "repro/internal/rng"

// Model describes one benchmark's measurement-noise profile.
type Model struct {
	// Sigma is the log-domain standard deviation of a single run's
	// multiplicative noise. The paper notes kernels run under a second
	// and are noise-sensitive (we use ~0.05–0.08); MPI applications see
	// network jitter (~0.03).
	Sigma float64

	// Repeats is how many runs are averaged per measurement (35 for the
	// kernels, following Balaprakash et al.; 5 for the applications).
	Repeats int
}

// Kernel returns the noise profile used for the SPAPT kernels.
func Kernel() Model { return Model{Sigma: 0.06, Repeats: 35} }

// Application returns the noise profile used for kripke and hypre.
func Application() Model { return Model{Sigma: 0.03, Repeats: 5} }

// Sample returns one noisy measurement of trueTime: a single simulated
// program run.
func (m Model) Sample(trueTime float64, r *rng.RNG) float64 {
	if m.Sigma <= 0 {
		return trueTime
	}
	return trueTime * r.LogNormal(-m.Sigma*m.Sigma/2, m.Sigma)
}

// Measure returns the averaged measurement over the model's Repeats
// simulated runs — the exact estimator the paper's data collection uses.
func (m Model) Measure(trueTime float64, r *rng.RNG) float64 {
	reps := m.Repeats
	if reps < 1 {
		reps = 1
	}
	if m.Sigma <= 0 {
		return trueTime
	}
	var sum float64
	for i := 0; i < reps; i++ {
		sum += m.Sample(trueTime, r)
	}
	return sum / float64(reps)
}
