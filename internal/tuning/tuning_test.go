package tuning

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

func candidateSet(t *testing.T, name string, n int, seed uint64) (bench.Problem, []space.Config) {
	t.Helper()
	p, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Space().SampleConfigs(rng.New(seed), n)
}

func TestRunValidation(t *testing.T) {
	p, cands := candidateSet(t, "atax", 5, 1)
	ann := NewTrueAnnotator(p, rng.New(2))
	if _, err := Run(p, cands, ann, Params{NInit: 10}, rng.New(3)); err == nil {
		t.Fatal("too-small candidate set accepted")
	}
}

func TestDirectTuningImproves(t *testing.T) {
	p, cands := candidateSet(t, "atax", 400, 4)
	ann := NewTrueAnnotator(p, rng.New(5))
	tr, err := Run(p, cands, ann, Params{NInit: 10, Iterations: 50, Forest: forest.Config{NumTrees: 32}}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.BestTrue) != 51 {
		t.Fatalf("trace length %d", len(tr.BestTrue))
	}
	// Monotone non-increasing best-so-far.
	for i := 1; i < len(tr.BestTrue); i++ {
		if tr.BestTrue[i] > tr.BestTrue[i-1] {
			t.Fatal("best-so-far increased")
		}
	}
	// The tuned best should be far better than the candidate median.
	var times []float64
	for _, c := range cands {
		times = append(times, p.TrueTime(c))
	}
	if tr.BestTrue[len(tr.BestTrue)-1] >= stats.Median(times) {
		t.Fatalf("tuning failed to beat the median: %v vs %v", tr.BestTrue[len(tr.BestTrue)-1], stats.Median(times))
	}
	if tr.BestCfg == nil {
		t.Fatal("no best config recorded")
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
	r := rng.New(7)
	ds, err := dataset.Build(context.Background(), p, 600, 100, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: 0.05},
		core.Params{NInit: 10, NBatch: 10, NMax: 150, Forest: forest.Config{NumTrees: 32}}, r.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}

	cands := p.Space().SampleConfigs(rng.New(8), 400)
	params := Params{NInit: 10, Iterations: 40, Forest: forest.Config{NumTrees: 32}}

	direct, err := Run(p, cands, NewTrueAnnotator(p, rng.New(9)), params, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	sur, err := Run(p, cands, NewSurrogateAnnotator(p.Space(), res.Model), params, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	d := direct.BestTrue[len(direct.BestTrue)-1]
	s := sur.BestTrue[len(sur.BestTrue)-1]
	if s > 2*d {
		t.Fatalf("surrogate tuning %v much worse than direct %v", s, d)
	}
	if sur.Annotator != "surrogate model" || direct.Annotator != "ground truth" {
		t.Fatal("annotator names wrong")
	}
}

func TestTuningDeterministic(t *testing.T) {
	p, cands := candidateSet(t, "mvt", 200, 11)
	params := Params{NInit: 8, Iterations: 20, Forest: forest.Config{NumTrees: 16}}
	a, err := Run(p, cands, NewTrueAnnotator(p, rng.New(12)), params, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, cands, NewTrueAnnotator(p, rng.New(12)), params, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.BestTrue {
		if a.BestTrue[i] != b.BestTrue[i] {
			t.Fatal("tuning not deterministic")
		}
	}
}

func TestExhaustsCandidates(t *testing.T) {
	// More iterations than candidates: loop must stop gracefully.
	p, cands := candidateSet(t, "mvt", 30, 14)
	params := Params{NInit: 5, Iterations: 100, Forest: forest.Config{NumTrees: 8}}
	tr, err := Run(p, cands, NewTrueAnnotator(p, rng.New(15)), params, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.BestTrue) != 26 { // 1 warm-up point + 25 remaining candidates
		t.Fatalf("trace length %d, want 26", len(tr.BestTrue))
	}
	if math.IsInf(tr.BestTrue[0], 0) {
		t.Fatal("warm-up best not recorded")
	}
}

func TestDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.NInit != 10 || p.Iterations != 100 {
		t.Fatalf("defaults = %+v", p)
	}
}
