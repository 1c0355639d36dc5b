package forest

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestScoreBatchMatchesPredictBatch: the streaming scorer must be
// bit-identical per row to PredictBatch, for the whole set and for any
// sub-batch (shards) — the determinism anchor of streaming pool scoring.
func TestScoreBatchMatchesPredictBatch(t *testing.T) {
	X, y := friedman(rng.New(21), 160)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 16}, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	wantMu, wantSigma := f.PredictBatch(X)
	for _, shard := range []int{1, 7, 64, len(X)} {
		mu := make([]float64, shard)
		sigma := make([]float64, shard)
		for base := 0; base < len(X); base += shard {
			end := base + shard
			if end > len(X) {
				end = len(X)
			}
			n := end - base
			f.ScoreBatch(X[base:end], mu[:n], sigma[:n])
			for i := 0; i < n; i++ {
				if mu[i] != wantMu[base+i] || sigma[i] != wantSigma[base+i] {
					t.Fatalf("shard %d row %d: ScoreBatch (%v, %v), PredictBatch (%v, %v)",
						shard, base+i, mu[i], sigma[i], wantMu[base+i], wantSigma[base+i])
				}
			}
		}
	}
}

// TestScoreBatchConcurrent: concurrent ScoreBatch calls on one forest
// must not interfere — the scan runs one call per worker.
func TestScoreBatchConcurrent(t *testing.T) {
	X, y := friedman(rng.New(23), 120)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 16}, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	wantMu, wantSigma := f.PredictBatch(X)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu := make([]float64, len(X))
			sigma := make([]float64, len(X))
			for rep := 0; rep < 20; rep++ {
				f.ScoreBatch(X, mu, sigma)
				for i := range X {
					if mu[i] != wantMu[i] || sigma[i] != wantSigma[i] {
						errs <- "concurrent ScoreBatch diverged from PredictBatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestExactSlotsAggregateBitIdentical: Forest.ScoreSlots over all slots
// followed by AggregateSlots must reproduce ScoreBatch bit for bit —
// the contract the cross-scan cache's cached-panel path relies on.
func TestExactSlotsAggregateBitIdentical(t *testing.T) {
	X, y := friedman(rng.New(81), 100)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 12}, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	checkSlotsMatchBatch(t, f, X)
}

// checkSlotsMatchBatch scores every slot of f over X in two chunks,
// aggregates the panels, and requires the result to equal ScoreBatch.
func checkSlotsMatchBatch(t *testing.T, f *Forest, X [][]float64) {
	t.Helper()
	n := len(X)
	b := f.NumSlots()
	want := make([]float64, n)
	wantS := make([]float64, n)
	f.ScoreBatch(X, want, wantS)
	leaves := make([][]int32, n)
	for i := range leaves {
		leaves[i] = make([]int32, b)
	}
	// Score the slots in two arbitrary chunks to prove partial rescoring
	// composes.
	slots := make([]int, b)
	for t := range slots {
		slots[t] = t
	}
	scoreSlotsRows(f, X, slots[:b/2], leaves)
	scoreSlotsRows(f, X, slots[b/2:], leaves)
	mu := make([]float64, n)
	sigma := make([]float64, n)
	f.AggregateSlots(leaves, mu, sigma)
	for i := 0; i < n; i++ {
		if mu[i] != want[i] || sigma[i] != wantS[i] {
			t.Fatalf("row %d: slots+aggregate (%v, %v) vs batch (%v, %v)",
				i, mu[i], sigma[i], want[i], wantS[i])
		}
	}
}

// TestPredictBatchRaggedChunks: parallelRows rounds worker chunks up to
// whole row tiles; batch sizes straddling the tile boundary must still
// match per-row prediction exactly.
func TestPredictBatchRaggedChunks(t *testing.T) {
	X, y := friedman(rng.New(83), 2*rowTile+1)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 8, Workers: 4}, rng.New(84))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{rowTile - 1, rowTile, rowTile + 1, 2*rowTile - 1, 2*rowTile + 1} {
		mu, sigma := f.PredictBatch(X[:n])
		for i := 0; i < n; i++ {
			wm, ws := f.PredictWithUncertainty(X[i])
			if mu[i] != wm || sigma[i] != ws {
				t.Fatalf("n=%d row %d: PredictBatch (%v, %v), single (%v, %v)", n, i, mu[i], sigma[i], wm, ws)
			}
		}
	}
}

// scoreSlotsRows runs ScoreSlots on float rows, keyed as ScoreBatch keys
// them.
func scoreSlotsRows(f *Forest, X [][]float64, slots []int, leaves [][]int32) {
	ksp, xk := keyRows(X, len(f.features))
	f.ScoreSlots(xk, slots, leaves)
	keyPool.Put(ksp)
}

// TestMomentsMatchTreeOrderOracle: for both σ estimators, every scoring
// entry (ScoreBatch, PredictWithUncertainty, the slot panels) equals an
// oracle that reads each tree's full leaf statistics in ascending tree
// order — so a BetweenTrees forest, which never loads a leaf variance,
// loses nothing, and TotalVariance keeps its exact leaf-variance sum.
func TestMomentsMatchTreeOrderOracle(t *testing.T) {
	X, y := friedman(rng.New(91), 90)
	for _, u := range []UncertaintyKind{BetweenTrees, TotalVariance} {
		f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 13, Uncertainty: u}, rng.New(92))
		if err != nil {
			t.Fatal(err)
		}
		mu := make([]float64, len(X))
		sigma := make([]float64, len(X))
		f.ScoreBatch(X, mu, sigma)
		for i, x := range X {
			var mean, m2, lv float64
			for tr, c := range f.trees {
				m, v, _ := c.PredictStats(x)
				d := m - mean
				mean += d / float64(tr+1)
				m2 += d * (m - mean)
				lv += v
			}
			b := float64(len(f.trees))
			variance := m2 / b
			if u == TotalVariance {
				variance += lv / b
			}
			wantS := math.Sqrt(variance)
			if mu[i] != mean || sigma[i] != wantS {
				t.Fatalf("%v row %d: ScoreBatch (%v, %v), oracle (%v, %v)", u, i, mu[i], sigma[i], mean, wantS)
			}
			if pm, ps := f.PredictWithUncertainty(x); pm != mean || ps != wantS {
				t.Fatalf("%v row %d: PredictWithUncertainty (%v, %v), oracle (%v, %v)", u, i, pm, ps, mean, wantS)
			}
		}
		checkSlotsMatchBatch(t, f, X)
	}
}
