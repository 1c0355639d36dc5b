package figures

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

// greedyOracle is the hand-written Fig. 8 tuning loop the figure ran on
// before it moved onto core.Run, kept as the test oracle for tuneTrace:
// fit a forest to the labeled samples, label the candidate with the
// smallest predicted time, repeat. It materializes every candidate's
// encoding, keeps an O(n) remaining list and predicts one candidate at a
// time — deliberately the simplest correct form of the loop.
func greedyOracle(p bench.Problem, candidates []space.Config, ev core.Evaluator, nInit, iterations int, fc forest.Config, r *rng.RNG) ([]float64, error) {
	if len(candidates) <= nInit {
		return nil, fmt.Errorf("oracle: %d candidates too few for NInit %d", len(candidates), nInit)
	}
	annotate := func(c space.Config) float64 {
		y, _ := ev.Evaluate(context.Background(), c)
		return y
	}
	sp := p.Space()
	features := sp.Features()
	candX := sp.EncodeAll(candidates)

	remaining := make([]int, len(candidates))
	for i := range remaining {
		remaining[i] = i
	}

	var trainX [][]float64
	var trainY []float64
	var bestTrueTrace []float64
	bestTrue := math.Inf(1)

	record := func(idx int) {
		if trueT := p.TrueTime(candidates[idx]); trueT < bestTrue {
			bestTrue = trueT
		}
	}

	// Warm-up: random labels.
	init := r.Sample(len(remaining), nInit)
	taken := map[int]bool{}
	for _, k := range init {
		idx := remaining[k]
		taken[idx] = true
		trainX = append(trainX, candX[idx])
		trainY = append(trainY, annotate(candidates[idx]))
		record(idx)
	}
	kept := remaining[:0]
	for _, idx := range remaining {
		if !taken[idx] {
			kept = append(kept, idx)
		}
	}
	remaining = kept
	bestTrueTrace = append(bestTrueTrace, bestTrue)

	for it := 0; it < iterations && len(remaining) > 0; it++ {
		model, err := forest.Fit(trainX, trainY, features, fc, r.Split())
		if err != nil {
			return nil, fmt.Errorf("oracle: fit at step %d: %w", it, err)
		}
		// Greedy: the best predicted candidate.
		bestK, bestPred := -1, math.Inf(1)
		for k, idx := range remaining {
			if pred := model.Predict(candX[idx]); pred < bestPred {
				bestPred = pred
				bestK = k
			}
		}
		idx := remaining[bestK]
		trainX = append(trainX, candX[idx])
		trainY = append(trainY, annotate(candidates[idx]))
		record(idx)
		remaining = append(remaining[:bestK], remaining[bestK+1:]...)
		bestTrueTrace = append(bestTrueTrace, bestTrue)
	}
	return bestTrueTrace, nil
}

// TestFig8MatchesGreedyOracle gates Fig. 8's engine: tuneTrace (core.Run
// with BestPerf and a batch of one) must reproduce the hand-written
// greedy loop's best-so-far trace bit for bit, with the true and with
// the surrogate annotator, on kernels and applications alike. The two
// agree because both draw the cold start with one r.Sample, both take
// one r.Split per fit, BestPerf breaks ties on the lowest pool ordinal
// as the strict < scan does, and the batch scorer equals Predict
// exactly.
func TestFig8MatchesGreedyOracle(t *testing.T) {
	const nInit, iterations = 10, 30
	sc := experiment.Smoke()
	fc := forest.Config{NumTrees: 16}
	for _, name := range []string{"atax", "adi", "mm", "hypre", "kripke", "lu"} {
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2} {
			r := rng.New(rng.Mix(seed, 0x516))
			sur, err := surrogateModel(context.Background(), p, sc, r.Split())
			if err != nil {
				t.Fatal(err)
			}
			cands := p.Space().SampleConfigs(r.Split(), 120)
			evSeed := r.Uint64()
			annotators := []struct {
				name string
				ev   func() core.Evaluator
			}{
				{"ground truth", func() core.Evaluator { return bench.Evaluator(p, rng.New(evSeed)) }},
				{"surrogate model", func() core.Evaluator { return surrogateEvaluator(p.Space(), sur) }},
			}
			for _, a := range annotators {
				want, err := greedyOracle(p, cands, a.ev(), nInit, iterations, fc, rng.New(rng.Mix(seed, 1)))
				if err != nil {
					t.Fatal(err)
				}
				got, err := tuneTrace(context.Background(), p, cands, a.ev(), nInit, iterations, fc, rng.New(rng.Mix(seed, 1)))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s seed %d %s: trace length %d, oracle %d", name, seed, a.name, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s seed %d %s: best-so-far[%d] = %v, oracle %v", name, seed, a.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Space().SampleConfigs(rng.New(1), 5)
	if _, err := tuneTrace(context.Background(), p, cands, bench.Evaluator(p, rng.New(2)), 10, 10, forest.Config{NumTrees: 8}, rng.New(3)); err == nil {
		t.Fatal("too-small candidate set accepted")
	}
}

func TestExhaustsCandidates(t *testing.T) {
	// More iterations than candidates: tuning must stop gracefully.
	p, err := bench.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Space().SampleConfigs(rng.New(14), 30)
	best, err := tuneTrace(context.Background(), p, cands, bench.Evaluator(p, rng.New(15)), 5, 100, forest.Config{NumTrees: 8}, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 26 { // 1 warm-up point + 25 remaining candidates
		t.Fatalf("trace length %d, want 26", len(best))
	}
	if math.IsInf(best[0], 0) {
		t.Fatal("warm-up best not recorded")
	}
}

func TestDirectTuningImproves(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Space().SampleConfigs(rng.New(4), 400)
	best, err := tuneTrace(context.Background(), p, cands, bench.Evaluator(p, rng.New(5)), 10, 50, forest.Config{NumTrees: 32}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 51 {
		t.Fatalf("trace length %d", len(best))
	}
	// Monotone non-increasing best-so-far.
	for i := 1; i < len(best); i++ {
		if best[i] > best[i-1] {
			t.Fatal("best-so-far increased")
		}
	}
	// The tuned best should be far better than the candidate median.
	var times []float64
	for _, c := range cands {
		times = append(times, p.TrueTime(c))
	}
	if best[len(best)-1] >= stats.Median(times) {
		t.Fatalf("tuning failed to beat the median: %v vs %v", best[len(best)-1], stats.Median(times))
	}
}

func TestSurrogateTuningComparable(t *testing.T) {
	// Build a surrogate with active learning, then tune with it; the
	// result should be within ~2x of direct tuning — the paper's point is
	// that surrogate tuning is comparable at negligible cost.
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := experiment.Scale{PoolSize: 600, TestSize: 100, NInit: 10, NBatch: 10, NMax: 150, Alpha: 0.05, Forest: forest.Config{NumTrees: 32}}
	sur, err := surrogateModel(context.Background(), p, sc, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Space().SampleConfigs(rng.New(8), 400)
	fc := forest.Config{NumTrees: 32}
	direct, err := tuneTrace(context.Background(), p, cands, bench.Evaluator(p, rng.New(9)), 10, 40, fc, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	surr, err := tuneTrace(context.Background(), p, cands, surrogateEvaluator(p.Space(), sur), 10, 40, fc, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	d := direct[len(direct)-1]
	s := surr[len(surr)-1]
	if s > 2*d {
		t.Fatalf("surrogate tuning %v much worse than direct %v", s, d)
	}
}

func TestTuningDeterministic(t *testing.T) {
	p, err := bench.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Space().SampleConfigs(rng.New(11), 200)
	fc := forest.Config{NumTrees: 16}
	a, err := tuneTrace(context.Background(), p, cands, bench.Evaluator(p, rng.New(12)), 8, 20, fc, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tuneTrace(context.Background(), p, cands, bench.Evaluator(p, rng.New(12)), 8, 20, fc, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tuning not deterministic")
		}
	}
}
