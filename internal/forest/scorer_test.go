package forest

import (
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
	mean := make([][]float64, n)
	lvar := make([][]float64, n)
	for i := range mean {
		mean[i] = make([]float64, b)
		lvar[i] = make([]float64, b)
	}
	// Score the slots in two arbitrary chunks to prove partial rescoring
	// composes.
	slots := make([]int, b)
	for t := range slots {
		slots[t] = t
	}
	f.ScoreSlots(X, slots[:b/2], mean, lvar)
	f.ScoreSlots(X, slots[b/2:], mean, lvar)
	mu := make([]float64, n)
	sigma := make([]float64, n)
	f.AggregateSlots(mean, lvar, mu, sigma)
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
