package noise

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNoNoisePassthrough(t *testing.T) {
	m := Model{Sigma: 0, Repeats: 1}
	r := rng.New(1)
	if got := m.Sample(3.5, r); got != 3.5 {
		t.Fatalf("Sample = %v", got)
	}
	if got := m.Measure(3.5, r); got != 3.5 {
		t.Fatalf("Measure = %v", got)
	}
}

func TestSampleUnbiased(t *testing.T) {
	m := Model{Sigma: 0.1, Repeats: 1}
	r := rng.New(2)
	var w stats.Welford
	for i := 0; i < 200000; i++ {
		w.Add(m.Sample(10, r))
	}
	if math.Abs(w.Mean()-10) > 0.02 {
		t.Fatalf("noisy mean = %v, want about 10 (unit-mean lognormal)", w.Mean())
	}
}

func TestSamplePositive(t *testing.T) {
	m := Kernel()
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		if v := m.Sample(0.5, r); v <= 0 {
			t.Fatalf("non-positive measurement %v", v)
		}
	}
}

func TestMeasureReducesVariance(t *testing.T) {
	single := Model{Sigma: 0.1, Repeats: 1}
	avg := Model{Sigma: 0.1, Repeats: 35}
	r := rng.New(4)
	var ws, wa stats.Welford
	for i := 0; i < 20000; i++ {
		ws.Add(single.Measure(10, r))
		wa.Add(avg.Measure(10, r))
	}
	// Averaging 35 repeats shrinks variance by about 35x.
	ratio := ws.Variance() / wa.Variance()
	if ratio < 20 || ratio > 50 {
		t.Fatalf("variance ratio = %v, want about 35", ratio)
	}
}

func TestMeasureHandlesZeroRepeats(t *testing.T) {
	m := Model{Sigma: 0.1, Repeats: 0}
	r := rng.New(5)
	if v := m.Measure(1, r); v <= 0 || math.IsNaN(v) {
		t.Fatalf("Measure with 0 repeats = %v", v)
	}
}

func TestProfiles(t *testing.T) {
	k, a := Kernel(), Application()
	if k.Repeats != 35 {
		t.Fatalf("kernel repeats = %d, want 35 per the paper", k.Repeats)
	}
	if k.Sigma <= a.Sigma {
		t.Fatal("kernel noise should exceed application noise")
	}
	if a.Repeats < 2 {
		t.Fatal("applications should average several runs")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	m := Kernel()
	a := m.Measure(2, rng.New(42))
	b := m.Measure(2, rng.New(42))
	if a != b {
		t.Fatal("measurement not deterministic under seed")
	}
}

// TestMeanSigma checks the scatter of an averaged measurement against
// its analytic value: a single log-normal run has relative standard
// deviation sqrt(exp(σ²)−1), and averaging Repeats independent runs
// divides it by sqrt(Repeats).
func TestMeanSigma(t *testing.T) {
	m := Kernel()
	want := math.Sqrt((math.Exp(m.Sigma*m.Sigma) - 1) / float64(m.Repeats))
	r := rng.New(17)
	const n = 4000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := m.Measure(1, r)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if rel := math.Abs(sd-want) / want; rel > 0.1 {
		t.Fatalf("empirical scatter %v vs analytic %v (rel err %.3f)", sd, want, rel)
	}
}
