package forest

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tree"
)

// Update performs the "updated partially" refit of the paper's Fig. 1:
// instead of retraining all B trees on the grown training set, it
// replaces a rotating subset of the ensemble with trees freshly fitted
// to bootstrap resamples of the full current data. Over successive
// updates the whole ensemble turns over, so the forest tracks the data
// while each call costs only refreshFraction of a full fit.
//
// X and y must be the complete current training set (the old samples
// plus the newly labeled ones). Update implements core.Updatable.
func (f *Forest) Update(X [][]float64, y []float64, r *rng.RNG) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("forest: Update with %d/%d samples", len(X), len(y))
	}
	if r == nil {
		return fmt.Errorf("forest: Update with nil generator")
	}

	treeCfg := f.cfg.Tree

	// Refresh a quarter of the ensemble (at least one tree), cycling
	// through positions so no tree survives forever.
	k := len(f.trees) / 4
	if k < 1 {
		k = 1
	}
	// The columns are ranked once for all k refits; one picks buffer and
	// one presorted-engine workspace serve them all too.
	ranks, err := tree.RankColumns(X, f.features)
	if err != nil {
		return fmt.Errorf("forest: Update: %w", err)
	}
	picks := make([]int32, len(X))
	ws := tree.NewWorkspace()
	for i := 0; i < k; i++ {
		slot := f.nextRefresh
		f.nextRefresh = (slot + 1) % len(f.trees)
		tr := r.Child(uint64(slot))
		drawBootstrap(picks, nil, tr)
		nt, err := tree.FitRanked(ranks, y, picks, treeCfg, tr, ws)
		if err != nil {
			return fmt.Errorf("forest: Update refit slot %d: %w", slot, err)
		}
		f.trees[slot] = nt
		// Mark the slot for the cross-scan score cache: only refreshed
		// slots get their cached rows recomputed on the next scan.
		f.treeGen[slot]++
	}
	// OOB bookkeeping is not maintained across partial updates.
	f.oob = math.NaN()
	return nil
}
