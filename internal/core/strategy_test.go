package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// mkCandidates builds a Candidates from parallel mu/sigma slices.
func mkCandidates(mu, sigma []float64, seed uint64) *Candidates {
	X := make([][]float64, len(mu))
	for i := range X {
		X[i] = []float64{float64(i)}
	}
	return &Candidates{X: X, Mu: mu, Sigma: sigma, Rand: rng.New(seed)}
}

func TestPWUScoreLimits(t *testing.T) {
	// α→1: score reduces to σ.
	p1 := PWU{Alpha: 1}
	if got := p1.Score(123, 4); math.Abs(got-4) > 1e-12 {
		t.Fatalf("alpha=1 score = %v, want sigma", got)
	}
	// α→0: score reduces to σ/μ (coefficient of variation).
	p0 := PWU{Alpha: 0}
	if got := p0.Score(8, 4); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("alpha=0 score = %v, want CV", got)
	}
}

func TestPWUPrefersFastAtEqualUncertainty(t *testing.T) {
	p := PWU{Alpha: 0.05}
	slow := p.Score(100, 2)
	fast := p.Score(1, 2)
	if fast <= slow {
		t.Fatalf("fast %v <= slow %v at equal sigma", fast, slow)
	}
}

func TestPWUPrefersUncertainAtEqualPerformance(t *testing.T) {
	p := PWU{Alpha: 0.05}
	if p.Score(10, 5) <= p.Score(10, 1) {
		t.Fatal("higher sigma did not raise score")
	}
}

func TestPWUZeroMuClamped(t *testing.T) {
	p := PWU{Alpha: 0.05}
	got := p.Score(0, 1)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("zero-mu score = %v", got)
	}
}

func TestPWUSelectTopScores(t *testing.T) {
	mu := []float64{1, 1, 100, 100}
	sigma := []float64{5, 1, 5, 1}
	// Scores rank: idx0 (fast, uncertain) > idx1 (fast) > idx2 (uncertain) > idx3.
	c := mkCandidates(mu, sigma, 1)
	sel := selectMem(t, PWU{Alpha: 0.05}, c, 2)
	if sel[0] != 0 || sel[1] != 1 {
		t.Fatalf("PWU selected %v", sel)
	}
}

func TestPBUSRespectsPerformanceFilter(t *testing.T) {
	// 10 candidates; top-10% filter keeps exactly the single fastest one,
	// regardless of a huge sigma elsewhere.
	mu := make([]float64, 10)
	sigma := make([]float64, 10)
	for i := range mu {
		mu[i] = float64(10 - i) // candidate 9 is fastest
		sigma[i] = 1
	}
	sigma[0] = 1e9 // slowest is extremely uncertain, but must be filtered out
	c := mkCandidates(mu, sigma, 1)
	sel := selectMem(t, PBUS{PerfFrac: 0.1}, c, 1)
	if sel[0] != 9 {
		t.Fatalf("PBUS selected %v, want 9", sel)
	}
}

func TestPBUSUncertaintyWithinFilter(t *testing.T) {
	// Filter keeps the 2 fastest; among them the more uncertain wins.
	mu := []float64{1, 2, 50, 60}
	sigma := []float64{0.1, 5, 100, 100}
	c := mkCandidates(mu, sigma, 1)
	sel := selectMem(t, PBUS{PerfFrac: 0.5}, c, 1)
	if sel[0] != 1 {
		t.Fatalf("PBUS selected %v, want 1", sel)
	}
}

func TestPBUSFilterExpandsToBatch(t *testing.T) {
	// PerfFrac keeps 1 candidate but nBatch=3 needs more.
	mu := []float64{4, 3, 2, 1}
	sigma := []float64{1, 1, 1, 1}
	c := mkCandidates(mu, sigma, 1)
	sel := selectMem(t, PBUS{PerfFrac: 0.01}, c, 3)
	if len(sel) != 3 {
		t.Fatalf("PBUS returned %d indices", len(sel))
	}
	seen := map[int]bool{}
	for _, i := range sel {
		seen[i] = true
	}
	if !seen[3] {
		t.Fatal("fastest candidate missing from expanded filter")
	}
}

func TestBRSSamplesWithinTopFraction(t *testing.T) {
	mu := make([]float64, 100)
	sigma := make([]float64, 100)
	for i := range mu {
		mu[i] = float64(i) // ascending: 0..9 are the top 10%
	}
	c := mkCandidates(mu, sigma, 7)
	counts := map[int]int{}
	for rep := 0; rep < 200; rep++ {
		for _, i := range selectMem(t, BRS{TopFrac: 0.1}, c, 1) {
			counts[i]++
		}
	}
	for i := range counts {
		if i >= 10 {
			t.Fatalf("BRS picked index %d outside top 10%%", i)
		}
	}
	if len(counts) < 3 {
		t.Fatalf("BRS not randomizing within filter: %v", counts)
	}
}

func TestBestPerfGreedy(t *testing.T) {
	mu := []float64{5, 1, 3}
	sigma := []float64{9, 9, 9}
	c := mkCandidates(mu, sigma, 1)
	sel := selectMem(t, BestPerf{}, c, 2)
	if sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("BestPerf selected %v", sel)
	}
}

func TestMaxUGreedy(t *testing.T) {
	mu := []float64{1, 1, 1}
	sigma := []float64{2, 9, 5}
	c := mkCandidates(mu, sigma, 1)
	sel := selectMem(t, MaxU{}, c, 2)
	if sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("MaxU selected %v", sel)
	}
}

func TestRandomUniform(t *testing.T) {
	mu := make([]float64, 50)
	sigma := make([]float64, 50)
	c := mkCandidates(mu, sigma, 11)
	hit := map[int]bool{}
	for rep := 0; rep < 500; rep++ {
		for _, i := range selectMem(t, Random{}, c, 2) {
			hit[i] = true
		}
	}
	if len(hit) < 45 {
		t.Fatalf("Random only covered %d/50 candidates", len(hit))
	}
}

func TestCVEqualsPWUAlphaZero(t *testing.T) {
	mu := []float64{3, 10, 0.5, 7}
	sigma := []float64{1, 8, 0.4, 2}
	c1 := mkCandidates(mu, sigma, 1)
	c2 := mkCandidates(mu, sigma, 1)
	a := selectMem(t, CV{}, c1, 2)
	b := selectMem(t, PWU{Alpha: 0}, c2, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CV %v != PWU(0) %v", a, b)
		}
	}
}

func TestEIScore(t *testing.T) {
	e := EI{}
	// Far below incumbent with low sigma: EI about equals the improvement.
	if got := e.Score(1, 1e-13, 10); math.Abs(got-9) > 1e-9 {
		t.Fatalf("deterministic EI = %v, want 9", got)
	}
	// Far above incumbent with no sigma: zero.
	if got := e.Score(20, 1e-13, 10); got != 0 {
		t.Fatalf("hopeless EI = %v", got)
	}
	// At the incumbent, EI = sigma*phi(0) ≈ 0.3989*sigma.
	if got := e.Score(10, 2, 10); math.Abs(got-2*0.39894228) > 1e-6 {
		t.Fatalf("at-incumbent EI = %v", got)
	}
	// More uncertainty means more EI at equal mean.
	if e.Score(12, 5, 10) <= e.Score(12, 1, 10) {
		t.Fatal("sigma does not raise EI")
	}
	// EI is non-negative everywhere.
	for _, mu := range []float64{0, 5, 10, 50} {
		for _, sig := range []float64{0, 0.1, 3} {
			if e.Score(mu, sig, 10) < -1e-12 {
				t.Fatalf("negative EI at mu=%v sigma=%v", mu, sig)
			}
		}
	}
}

func TestEISelect(t *testing.T) {
	mu := []float64{9, 2, 15}
	sigma := []float64{0.1, 0.1, 0.1}
	c := mkCandidates(mu, sigma, 1)
	c.BestY = 10
	sel := selectMem(t, EI{}, c, 1)
	if sel[0] != 1 {
		t.Fatalf("EI selected %v, want the clear improver", sel)
	}
}

func TestEIXiMargin(t *testing.T) {
	// With a large xi, marginal improvers lose their EI.
	plain := EI{}.Score(9.5, 0.01, 10)
	cautious := EI{Xi: 2}.Score(9.5, 0.01, 10)
	if cautious >= plain {
		t.Fatal("xi margin did not reduce EI")
	}
}

func TestByName(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := ByName(name, 0.05)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%s).Name() = %s", name, s.Name())
		}
	}
	if _, err := ByName("bogus", 0.05); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if s, err := ByName("CV", 0); err != nil || s.Name() != "CV" {
		t.Fatalf("ByName(CV) = %v, %v", s, err)
	}
	if s, err := ByName("EI", 0); err != nil || s.Name() != "EI" {
		t.Fatalf("ByName(EI) = %v, %v", s, err)
	}
}

func TestAllStrategiesReturnDistinctValidIndices(t *testing.T) {
	strategies := []Strategy{PWU{Alpha: 0.05}, PBUS{}, BRS{}, BestPerf{}, MaxU{}, Random{}, CV{}}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(80)
		mu := make([]float64, n)
		sigma := make([]float64, n)
		for i := range mu {
			mu[i] = 0.1 + r.Float64()*10
			sigma[i] = r.Float64()
		}
		for _, s := range strategies {
			batch := 1 + r.Intn(5)
			c := mkCandidates(mu, sigma, seed+1)
			sel := selectMem(t, s, c, batch)
			want := batch
			if want > n {
				want = n
			}
			if len(sel) != want {
				return false
			}
			seen := map[int]bool{}
			for _, i := range sel {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLargerThanPool(t *testing.T) {
	mu := []float64{1, 2}
	sigma := []float64{1, 2}
	for _, s := range []Strategy{PWU{Alpha: 0.05}, PBUS{}, BRS{}, BestPerf{}, MaxU{}, Random{}} {
		c := mkCandidates(mu, sigma, 3)
		sel := selectMem(t, s, c, 10)
		if len(sel) != 2 {
			t.Fatalf("%s returned %d indices for oversize batch", s.Name(), len(sel))
		}
	}
}

// ---- NaN score handling ----

func sliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopKNaNScoresRankLast: NaN fed to sort's comparator makes the
// order undefined; after sinking, NaN-scored candidates must rank last,
// deterministically, and never displace finite scores.
func TestTopKNaNScoresRankLast(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 5, nan, 3, 8, nan, 1}
	if got := topKByScore(scores, 3); !sliceEq(got, []int{4, 1, 3}) {
		t.Fatalf("topK = %v", got)
	}
	// Overflow into the NaN region stays index-ordered (stable sort).
	if got := topKByScore(scores, 6); !sliceEq(got, []int{4, 1, 3, 6, 0, 2}) {
		t.Fatalf("topK overflow = %v", got)
	}
	if got := bottomKByScore(scores, 2); !sliceEq(got, []int{6, 3}) {
		t.Fatalf("bottomK = %v", got)
	}
	if got := bottomKByScore(scores, 6); !sliceEq(got, []int{6, 3, 1, 4, 0, 2}) {
		t.Fatalf("bottomK overflow = %v", got)
	}
	// The caller's slice must not be mutated by the sink.
	if !math.IsNaN(scores[0]) || !math.IsNaN(scores[2]) || !math.IsNaN(scores[5]) {
		t.Fatalf("input scores mutated: %v", scores)
	}
}

func TestTopKDistinctNaNScoresRankLast(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 5, nan, 3, 8, nan, 1}
	c := mkCandidates(make([]float64, len(scores)), make([]float64, len(scores)), 1)
	if got := topKDistinctByScore(scores, c, 3); !sliceEq(got, []int{4, 1, 3}) {
		t.Fatalf("topKDistinct = %v", got)
	}
	if got := topKDistinctByScore(scores, c, 6); !sliceEq(got, []int{4, 1, 3, 6, 0, 2}) {
		t.Fatalf("topKDistinct overflow = %v", got)
	}
}

// TestStrategiesDeterministicUnderNaN runs every deterministic strategy
// on NaN-laced beliefs twice and requires identical selections.
func TestStrategiesDeterministicUnderNaN(t *testing.T) {
	nan := math.NaN()
	mu := []float64{1, nan, 3, 4, nan, 6, 7, 8}
	sigma := []float64{nan, 1, nan, 2, 1, nan, 2, 1}
	for _, s := range []Strategy{PWU{Alpha: 0.05}, PBUS{PerfFrac: 0.25}, BestPerf{}, MaxU{}, EI{}} {
		a := selectMem(t, s, mkCandidates(mu, sigma, 9), 4)
		b := selectMem(t, s, mkCandidates(mu, sigma, 9), 4)
		if !sliceEq(a, b) {
			t.Fatalf("%s not deterministic under NaN: %v vs %v", s.Name(), a, b)
		}
		seen := map[int]bool{}
		for _, i := range a {
			if i < 0 || i >= len(mu) || seen[i] {
				t.Fatalf("%s returned invalid selection %v", s.Name(), a)
			}
			seen[i] = true
		}
	}
}
