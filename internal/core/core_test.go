package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// sliceOf wraps a materialized pool as the engine's candidate source.
func sliceOf(sp *space.Space, cfgs []space.Config) pool.Source {
	return pool.NewSlice(sp, cfgs)
}

// sampleDistinct draws up to n distinct configurations of sp, or
// enumerates the whole space when it has no more than n points.
func sampleDistinct(sp *space.Space, r *rng.RNG, n int) []space.Config {
	if card, ok := sp.Cardinality(); ok && card <= int64(n) {
		return sp.Enumerate()
	}
	seen := make(map[string]bool, n)
	out := make([]space.Config, 0, n)
	for len(out) < n {
		c := sp.SampleConfig(r)
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// quadSpace is a tiny test problem: two numeric parameters, execution
// time = (a-5)^2 + (b-3)^2 + 1, minimum 1 at (5, 3).
func quadSpace(t testing.TB) (*space.Space, Evaluator) {
	t.Helper()
	sp := space.MustNew(
		space.NumRange("a", 0, 9, 1),
		space.NumRange("b", 0, 9, 1),
	)
	ev := EvaluatorFunc(func(ctx context.Context, c space.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		a := sp.ValueByName(c, "a")
		b := sp.ValueByName(c, "b")
		return (a-5)*(a-5) + (b-3)*(b-3) + 1, nil
	})
	return sp, ev
}

func smallForest() forest.Config {
	return forest.Config{NumTrees: 16, Workers: 2}
}

func TestRunValidation(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(1), 50)
	r := rng.New(2)
	if _, err := Run(context.Background(), sliceOf(nil, pool), ev, PWU{Alpha: 0.05}, Params{}, r, nil); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool), nil, PWU{Alpha: 0.05}, Params{}, r, nil); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, nil, Params{}, r, nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{}, nil, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool[:5]), ev, PWU{Alpha: 0.05}, Params{NInit: 10}, r, nil); err == nil {
		t.Fatal("pool smaller than NInit accepted")
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NMax: 1000}, r, nil); err == nil {
		t.Fatal("NMax beyond pool accepted")
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 40, NMax: 20}, r, nil); err == nil {
		t.Fatal("NInit beyond NMax accepted")
	}
}

func TestRunReachesNMax(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(3), 80)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 8, NBatch: 3, NMax: 30, Forest: smallForest()}, rng.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 30 || len(res.TrainConfigs) != 30 {
		t.Fatalf("training set size = %d", len(res.TrainY))
	}
	if res.Model == nil {
		t.Fatal("no final model")
	}
	// NInit=8, batch=3: iterations labeled 8 -> 11 ... -> 29 -> 30 (last
	// batch truncated to 1): ceil(22/3) = 8 iterations.
	if res.Iterations != 8 {
		t.Fatalf("iterations = %d, want 8", res.Iterations)
	}
}

func TestRunDeterministic(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(5), 80)
	run := func() []float64 {
		res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 5, NMax: 25, Forest: smallForest()}, rng.New(6), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainY
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at sample %d", i)
		}
	}
}

func TestRunNoDuplicateLabels(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sampleDistinct(sp, rng.New(7), 60)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, MaxU{}, Params{NInit: 5, NMax: 40, Forest: smallForest()}, rng.New(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range res.TrainConfigs {
		k := c.Key()
		if seen[k] {
			t.Fatalf("config %s labeled twice", k)
		}
		seen[k] = true
	}
}

func TestObserverCalls(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(9), 60)
	var iters []int
	var sizes []int
	obs := func(s *State) error {
		iters = append(iters, s.Iteration)
		sizes = append(sizes, len(s.TrainY))
		if s.Model == nil {
			t.Fatal("observer saw nil model")
		}
		return nil
	}
	_, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 5, NBatch: 5, NMax: 20, Forest: smallForest()}, rng.New(10), obs)
	if err != nil {
		t.Fatal(err)
	}
	wantIters := []int{0, 1, 2, 3}
	wantSizes := []int{5, 10, 15, 20}
	if len(iters) != len(wantIters) {
		t.Fatalf("observer calls = %v", iters)
	}
	for i := range wantIters {
		if iters[i] != wantIters[i] || sizes[i] != wantSizes[i] {
			t.Fatalf("observer saw iters=%v sizes=%v", iters, sizes)
		}
	}
}

func TestObserverErrorAborts(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(11), 60)
	boom := errors.New("boom")
	calls := 0
	obs := func(s *State) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	}
	_, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 5, NMax: 20, Forest: smallForest()}, rng.New(12), obs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("observer called %d times", calls)
	}
}

func TestRecordSelections(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(13), 60)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 5, NMax: 20, Forest: smallForest(), RecordSelections: true}, rng.New(14), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selections) != 15 { // NMax - NInit
		t.Fatalf("selections = %d, want 15", len(res.Selections))
	}
	for _, s := range res.Selections {
		if s.Sigma < 0 || math.IsNaN(s.Mu) || s.Iteration < 1 {
			t.Fatalf("bad selection record %+v", s)
		}
		want, werr := ev.Evaluate(context.Background(), s.Config)
		if werr != nil {
			t.Fatal(werr)
		}
		if s.Y != want {
			t.Fatalf("selection Y %v != evaluator %v", s.Y, want)
		}
	}
}

func TestNoSelectionsWithoutFlag(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(15), 60)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, Random{}, Params{NInit: 5, NMax: 15, Forest: smallForest()}, rng.New(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selections != nil {
		t.Fatal("selections recorded without flag")
	}
}

func TestActiveLearningBeatsNothingOnQuadratic(t *testing.T) {
	// Sanity: after 60 labels with PWU, the model should predict the
	// high-performance region decently.
	sp, ev := quadSpace(t)
	r := rng.New(17)
	pool := sp.SampleConfigs(r, 90)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1}, Params{NInit: 10, NMax: 60, Forest: forest.Config{NumTrees: 64}}, rng.New(18), nil)
	if err != nil {
		t.Fatal(err)
	}
	best := space.Config{5, 3} // true optimum
	pred := res.Model.Predict(sp.Encode(best))
	if pred > 15 {
		t.Fatalf("prediction at optimum = %v, model learned nothing", pred)
	}
}

func TestBadStrategyIndexRejected(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(19), 60)
	bad := strategyFunc{name: "bad", f: func(ps PoolStream, n int) []int { return []int{ps.Len() + 5} }}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, bad, Params{NInit: 5, NMax: 10, Forest: smallForest()}, rng.New(20), nil); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	dup := strategyFunc{name: "dup", f: func(ps PoolStream, n int) []int { return []int{0, 0} }}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, dup, Params{NInit: 5, NBatch: 2, NMax: 10, Forest: smallForest()}, rng.New(21), nil); err == nil {
		t.Fatal("duplicate index accepted")
	}
	empty := strategyFunc{name: "empty", f: func(ps PoolStream, n int) []int { return nil }}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, empty, Params{NInit: 5, NMax: 10, Forest: smallForest()}, rng.New(22), nil); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// strategyFunc lets tests inject malformed strategies.
type strategyFunc struct {
	name string
	f    func(ps PoolStream, n int) []int
}

func (s strategyFunc) Name() string { return s.name }
func (s strategyFunc) SelectStream(ps PoolStream, n int) ([]int, error) {
	return s.f(ps, n), nil
}

func TestCustomFitter(t *testing.T) {
	// A constant-model fitter: proves Run honours Params.Fitter and
	// never touches the forest path.
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(30), 60)
	fits := 0
	fitter := func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (Model, error) {
		fits++
		mean := 0.0
		for _, v := range y {
			mean += v
		}
		mean /= float64(len(y))
		return constModel{mean}, nil
	}
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, Random{}, Params{NInit: 5, NBatch: 5, NMax: 20, Fitter: fitter}, rng.New(31), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fits != 4 { // cold start + 3 iterations
		t.Fatalf("fitter called %d times", fits)
	}
	if _, ok := res.Model.(constModel); !ok {
		t.Fatalf("result model is %T", res.Model)
	}
}

// constModel is a trivial Model for fitter-injection tests.
type constModel struct{ mean float64 }

func (m constModel) Predict(x []float64) float64 { return m.mean }
func (m constModel) PredictBatch(X [][]float64) (mu, sigma []float64) {
	mu = make([]float64, len(X))
	sigma = make([]float64, len(X))
	for i := range mu {
		mu[i] = m.mean
		sigma[i] = 1
	}
	return mu, sigma
}

func TestWarmUpdatePath(t *testing.T) {
	// With WarmUpdate, the forest is partially refreshed instead of
	// refitted; the run must still complete and produce a usable model.
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(32), 80)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
		Params{NInit: 10, NBatch: 5, NMax: 50, Forest: smallForest(), WarmUpdate: true}, rng.New(33), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainY) != 50 {
		t.Fatalf("labeled %d", len(res.TrainY))
	}
	pred := res.Model.Predict(sp.Encode(space.Config{5, 3}))
	if pred > 40 {
		t.Fatalf("warm-updated model useless: predicted %v at optimum", pred)
	}
}

func TestBestYReachesStrategy(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(34), 60)
	var seen []float64
	probe := strategyFunc{name: "probe", f: func(ps PoolStream, n int) []int {
		seen = append(seen, ps.BestY())
		return []int{0}
	}}
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, probe, Params{NInit: 5, NMax: 10, Forest: smallForest()}, rng.New(35), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("strategy called %d times", len(seen))
	}
	// BestY must equal the running minimum of the training labels and
	// never increase.
	min := res.TrainY[0]
	for _, y := range res.TrainY[1:5] {
		if y < min {
			min = y
		}
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] > seen[i-1] {
			t.Fatal("BestY increased")
		}
	}
	if seen[0] != min {
		t.Fatalf("first BestY %v != cold-start min %v", seen[0], min)
	}
}

func TestBatchDedupPrefersDistinctConfigs(t *testing.T) {
	// A pool that is one config duplicated many times plus a few
	// distinct ones: a batch of 3 must not be all-duplicates.
	sp, ev := quadSpace(t)
	base := space.Config{1, 1}
	pool := make([]space.Config, 0, 40)
	for i := 0; i < 30; i++ {
		pool = append(pool, base.Clone())
	}
	pool = append(pool, sp.SampleConfigs(rng.New(36), 10)...)
	res, err := Run(context.Background(), sliceOf(sp, pool), ev, MaxU{}, Params{NInit: 5, NBatch: 3, NMax: 20, Forest: smallForest()}, rng.New(37), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Count how many distinct configs were labeled: with dedup it must
	// exceed the degenerate all-duplicates outcome.
	distinct := map[string]bool{}
	for _, c := range res.TrainConfigs {
		distinct[c.Key()] = true
	}
	if len(distinct) < 8 {
		t.Fatalf("only %d distinct configs labeled out of 20", len(distinct))
	}
}

func TestPoolNotMutated(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(23), 60)
	snapshot := make([]string, len(pool))
	for i, c := range pool {
		snapshot[i] = c.Key()
	}
	if _, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.05}, Params{NInit: 5, NMax: 20, Forest: smallForest()}, rng.New(24), nil); err != nil {
		t.Fatal(err)
	}
	for i, c := range pool {
		if c.Key() != snapshot[i] {
			t.Fatal("pool mutated by Run")
		}
	}
}

// noPoolModel wraps a forest but exposes only the base Model interface,
// hiding the forest's concurrent batch scorer, its per-slot scoring
// contract (and Updatable). It forces Run onto the serialized
// PredictBatch adapter with no cross-scan cache, the reference for the
// forest's cached scoring path.
type noPoolModel struct{ f *forest.Forest }

func (m noPoolModel) Predict(x []float64) float64 { return m.f.Predict(x) }
func (m noPoolModel) PredictBatch(X [][]float64) (mu, sigma []float64) {
	return m.f.PredictBatch(X)
}

// noPoolUpdatable additionally forwards warm updates, so the warm-update
// loop runs without the cross-scan score cache.
type noPoolUpdatable struct{ noPoolModel }

func (m noPoolUpdatable) Update(X [][]float64, y []float64, r *rng.RNG) error {
	return m.noPoolModel.f.Update(X, y, r)
}

// TestPoolPredictorPathBitIdentical pins the forest's pool-scoring path
// (concurrent ScoreBatch, plus the pool.ScanCache in warm mode) to the
// plain PredictBatch path bit for bit, end to end through Algorithm 1:
// same seed, same strategy, the only difference being whether the model
// advertises the scorer capabilities. Selections (the values the
// strategy acted on) and labels must match exactly, in both cold-refit
// and warm-update modes — the latter exercises cache invalidation after
// partial updates.
func TestPoolPredictorPathBitIdentical(t *testing.T) {
	sp, ev := quadSpace(t)
	pool := sp.SampleConfigs(rng.New(40), 120)
	run := func(fitter Fitter, warm bool) *Result {
		t.Helper()
		res, err := Run(context.Background(), sliceOf(sp, pool), ev, PWU{Alpha: 0.1},
			Params{NInit: 10, NBatch: 3, NMax: 40, Forest: smallForest(),
				Fitter: fitter, WarmUpdate: warm, RecordSelections: true},
			rng.New(41), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compare := func(mode string, a, b *Result) {
		t.Helper()
		if len(a.TrainY) != len(b.TrainY) || len(a.Selections) != len(b.Selections) {
			t.Fatalf("%s: shapes differ", mode)
		}
		for i := range a.TrainY {
			if a.TrainY[i] != b.TrainY[i] {
				t.Fatalf("%s: label %d differs: %v vs %v", mode, i, a.TrainY[i], b.TrainY[i])
			}
		}
		for i := range a.Selections {
			x, y := a.Selections[i], b.Selections[i]
			if x.Mu != y.Mu || x.Sigma != y.Sigma || x.Y != y.Y {
				t.Fatalf("%s: selection %d differs: %+v vs %+v", mode, i, x, y)
			}
		}
	}

	coldFitter := func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (Model, error) {
		f, err := forest.Fit(X, y, fs, smallForest(), r)
		if err != nil {
			return nil, err
		}
		return noPoolModel{f}, nil
	}
	compare("cold", run(nil, false), run(coldFitter, false))

	warmFitter := func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (Model, error) {
		f, err := forest.Fit(X, y, fs, smallForest(), r)
		if err != nil {
			return nil, err
		}
		return noPoolUpdatable{noPoolModel{f}}, nil
	}
	compare("warm", run(nil, true), run(warmFitter, true))
}
