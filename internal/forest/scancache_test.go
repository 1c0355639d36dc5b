package forest

import (
	"context"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// The forest's side of the cross-scan score cache: pool.ScanCache keeps
// per-slot panels across scans and re-walks only the slots whose
// SlotGens advanced. These tests drive the forest through that cache —
// the path every warm-update run scores its pool and its held-out test
// set on — and require every scan to equal PredictBatch bit for bit.

// cacheSpace is a small mixed space for the cache fixtures.
func cacheSpace() *space.Space {
	return space.MustNew(
		space.NumRange("a", 0, 19, 1),
		space.NumRange("b", 0, 9, 1),
		space.NumRange("c", 0, 14, 1),
		space.Cat("k", "p", "q", "r", "s"),
	)
}

// cacheObjective is a deterministic response with an interaction and a
// categorical effect.
func cacheObjective(sp *space.Space, c space.Config) float64 {
	a, b, cv := sp.ValueByName(c, "a"), sp.ValueByName(c, "b"), sp.ValueByName(c, "c")
	return (a-7)*(a-7) + 0.5*b*cv + float64(sp.LevelByName(c, "k")*3) + 1
}

// cacheTraining samples n labeled rows from sp.
func cacheTraining(sp *space.Space, seed uint64, n int) ([][]float64, []float64) {
	cfgs := sp.SampleConfigs(rng.New(seed), n)
	y := make([]float64, n)
	for i, c := range cfgs {
		y[i] = cacheObjective(sp, c)
	}
	return sp.EncodeAll(cfgs), y
}

// fitWithPool fits a forest of the given size and returns it with a
// 300-candidate pool source over the same space.
func fitWithPool(t *testing.T, trees int) (*Forest, *pool.Slice) {
	t.Helper()
	sp := cacheSpace()
	X, y := cacheTraining(sp, 20, 200)
	f, err := Fit(X, y, sp.Features(), Config{NumTrees: trees}, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	return f, pool.NewSlice(sp, sp.SampleConfigs(rng.New(21), 300))
}

// growTraining returns a larger training set for partial updates.
func growTraining(seed uint64, n int) ([][]float64, []float64) {
	return cacheTraining(cacheSpace(), seed, n)
}

// assertCachedScanMatchesBatch scans src through f with the given cache
// (skipping the ascending global indices in skip) and checks every
// delivered (μ, σ) against PredictBatch over the same rows.
func assertCachedScanMatchesBatch(t *testing.T, f *Forest, src *pool.Slice, cache *pool.ScanCache, skip []int) {
	t.Helper()
	kept := make([][]float64, 0, src.Len())
	for g, si := 0, 0; g < src.Len(); g++ {
		if si < len(skip) && skip[si] == g {
			si++
			continue
		}
		c := make(space.Config, src.Space().NumParams())
		src.At(g, c)
		kept = append(kept, src.Space().Encode(c))
	}
	mu := make([]float64, len(kept))
	sigma := make([]float64, len(kept))
	seen := 0
	err := pool.Scan(context.Background(), src, f, pool.ScanConfig{Shard: 64, Workers: 3, Skip: skip, Cache: cache},
		func(ord int, _ []float64, m, s float64) {
			mu[ord], sigma[ord] = m, s
			seen++
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(kept) {
		t.Fatalf("scan delivered %d candidates, want %d", seen, len(kept))
	}
	bmu, bsigma := f.PredictBatch(kept)
	for i := range kept {
		if !sameBits(mu[i], bmu[i]) || !sameBits(sigma[i], bsigma[i]) {
			t.Fatalf("ordinal %d: cached scan (%v,%v) batch (%v,%v)", i, mu[i], sigma[i], bmu[i], bsigma[i])
		}
	}
}

// TestPredictPoolMatchesBatch: a cached pool scan — the cold fill, then
// a steady-state rescore served from the panels, with labeled
// candidates skipped — reproduces PredictBatch exactly.
func TestPredictPoolMatchesBatch(t *testing.T) {
	f, src := fitWithPool(t, 16)
	cache := pool.NewScanCache(0)
	assertCachedScanMatchesBatch(t, f, src, cache, nil)
	assertCachedScanMatchesBatch(t, f, src, cache, []int{0, 7, 13, 99, 150, 299})
	if st := cache.Stats(); st.Resets != 1 || st.StaleSlots != 0 || st.Scans != 2 {
		t.Fatalf("steady-state rescore: %+v, want one reset, no stale slots, two scans", st)
	}
}

// TestPredictPoolAfterUpdate exercises the generation bookkeeping: a
// partial Update refreshes a quarter of the ensemble, and the next
// cached scan must re-walk exactly those slots and stay bit-identical to
// PredictBatch.
func TestPredictPoolAfterUpdate(t *testing.T) {
	f, src := fitWithPool(t, 16)
	cache := pool.NewScanCache(0)
	assertCachedScanMatchesBatch(t, f, src, cache, nil)

	X, y := growTraining(24, 250)
	if err := f.Update(X, y, rng.New(25)); err != nil {
		t.Fatal(err)
	}
	assertCachedScanMatchesBatch(t, f, src, cache, []int{0, 5, 100, 299})
	if st := cache.Stats(); st.StaleSlots != 4 || st.Resets != 1 { // Update refreshes b/4 slots
		t.Fatalf("after one update: %+v, want 4 stale slots and no extra reset", st)
	}
}

// TestUpdateRotationKeepsCacheConsistent cycles every ensemble slot via
// repeated updates, interleaving cached scans, and checks the cache
// never drifts from the ground-truth batch path.
func TestUpdateRotationKeepsCacheConsistent(t *testing.T) {
	f, src := fitWithPool(t, 8)
	cache := pool.NewScanCache(0)
	assertCachedScanMatchesBatch(t, f, src, cache, nil)
	orig := f.SlotGens()
	X, y := growTraining(26, 250)
	skip := []int{3, 44, 150, 299}
	for i := 0; i < 4; i++ {
		if err := f.Update(X, y, rng.New(uint64(27+i))); err != nil {
			t.Fatal(err)
		}
		assertCachedScanMatchesBatch(t, f, src, cache, skip)
	}
	// 4 updates x 2 trees = every slot refreshed exactly once.
	for tr, g := range f.SlotGens() {
		if g != orig[tr]+1 {
			t.Fatalf("slot %d generation %d, want %d", tr, g, orig[tr]+1)
		}
	}
}

// TestPredictCachedMatchesBatch is the bit-identity contract of the
// checkpoint-evaluation path: a warm run scores its held-out test set
// through its own ScanCache at every checkpoint, next to the pool's
// cache on the same forest. First fill, steady-state reuse and the
// partial-update reconciliation must all reproduce PredictBatch exactly,
// for both caches.
func TestPredictCachedMatchesBatch(t *testing.T) {
	f, src := fitWithPool(t, 16)
	sp := src.Space()
	test := pool.NewSlice(sp, sp.SampleConfigs(rng.New(31), 120))
	poolCache, testCache := pool.NewScanCache(0), pool.NewScanCache(0)

	assertCachedScanMatchesBatch(t, f, test, testCache, nil)
	assertCachedScanMatchesBatch(t, f, test, testCache, nil)
	assertCachedScanMatchesBatch(t, f, src, poolCache, nil)

	X, y := growTraining(32, 220)
	for i := 0; i < 5; i++ {
		if err := f.Update(X, y, rng.New(uint64(33+i))); err != nil {
			t.Fatal(err)
		}
		assertCachedScanMatchesBatch(t, f, test, testCache, nil)
		assertCachedScanMatchesBatch(t, f, src, poolCache, []int{1, 42, 250})
	}
	if st := testCache.Stats(); st.Resets != 1 || st.Scans != 7 {
		t.Fatalf("test-set cache: %+v, want one reset over seven scans", st)
	}
}

// TestPredictCachedDistinctMatrices keeps two held-out sets cached at
// once on one forest, as a run evaluating both a validation and a test
// split would; neither cache disturbs the other.
func TestPredictCachedDistinctMatrices(t *testing.T) {
	f, src := fitWithPool(t, 8)
	sp := src.Space()
	a := pool.NewSlice(sp, sp.SampleConfigs(rng.New(35), 60))
	b := pool.NewSlice(sp, sp.SampleConfigs(rng.New(36), 40))
	ca, cb := pool.NewScanCache(0), pool.NewScanCache(0)
	assertCachedScanMatchesBatch(t, f, a, ca, nil)
	assertCachedScanMatchesBatch(t, f, b, cb, nil)
	X, y := growTraining(37, 220)
	if err := f.Update(X, y, rng.New(38)); err != nil {
		t.Fatal(err)
	}
	assertCachedScanMatchesBatch(t, f, a, ca, nil)
	assertCachedScanMatchesBatch(t, f, b, cb, nil)
	for name, c := range map[string]*pool.ScanCache{"a": ca, "b": cb} {
		if st := c.Stats(); st.Resets != 1 || st.StaleSlots != 2 {
			t.Fatalf("cache %s: %+v, want one reset and 2 stale slots after the update", name, st)
		}
	}
}
