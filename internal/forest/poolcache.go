package forest

// Pool-prediction cache. Algorithm 1 scores the same fixed pool matrix
// every iteration, and the experiment harness re-predicts the same fixed
// test matrix at every checkpoint; the per-tree component of those
// predictions only changes for the ensemble slots a partial Update
// refreshed. BindPool stores the per-tree prediction of every pool row
// once, PredictPool aggregates the cached values for an arbitrary subset
// of rows, PredictCached serves whole auxiliary matrices (identity-keyed,
// e.g. the held-out test set) the same way, and the treeGen generation
// counters let every cache recompute exactly the refreshed slots after an
// Update instead of re-walking all trees over all rows.

// poolCache holds per-tree predictions over one fixed feature matrix.
type poolCache struct {
	X [][]float64 // the bound matrix (not copied)
	b int         // ensemble size

	// mean and lvar store each tree's leaf mean and within-leaf
	// variance per row, row-major: mean[row*b+slot]. Row-major keeps the
	// per-row aggregation on one contiguous stretch of memory.
	mean, lvar []float64

	// gen is the Forest.treeGen snapshot at the last refresh of each
	// slot; a mismatch marks the slot's cached rows stale.
	gen []uint64
}

// newPoolCache allocates a cache for X and fills every slot.
func (f *Forest) newPoolCache(X [][]float64) *poolCache {
	b := len(f.trees)
	c := &poolCache{
		X: X, b: b,
		mean: make([]float64, len(X)*b),
		lvar: make([]float64, len(X)*b),
		gen:  make([]uint64, b),
	}
	all := make([]int, b)
	for t := range all {
		all[t] = t
	}
	f.refreshCache(c, all)
	return c
}

// BindPool precomputes per-tree predictions for every row of poolX and
// retains them for PredictPool. Binding the matrix the forest is already
// bound to is a no-op (staleness after partial updates is reconciled
// lazily by PredictPool); binding a different matrix rebuilds the cache.
// The rows of poolX must not be mutated while bound.
//
// Together with PredictPool this implements core.PoolPredictor.
func (f *Forest) BindPool(poolX [][]float64) {
	if f.cache != nil && sameMatrix(f.cache.X, poolX) {
		return
	}
	f.cache = f.newPoolCache(poolX)
}

// sameMatrix reports whether two matrices are the same slice (identity,
// not content: the cache contract is that the caller keeps passing the
// one pool matrix it bound).
func sameMatrix(a, b [][]float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// refreshCache recomputes the cached predictions of the given ensemble
// slots over all of c's rows, parallel over row chunks, and stamps the
// slots' generations current.
func (f *Forest) refreshCache(c *poolCache, slots []int) {
	d := len(f.features)
	f.parallelRows(len(c.X), func(lo, hi int) {
		// Each chunk keys its rows once; slot-outer per tile keeps the
		// tile's keys L1-resident across the slots (see ScoreBatch).
		ksp, xk := keyRows(c.X[lo:hi], d)
		var buf tileLeaves
		tiles(hi-lo, &buf, func(tlo, thi int, leaves []int32) {
			for _, t := range slots {
				tr := f.compiled[t]
				walkLeaves(tr, xk[tlo*d:], d, leaves)
				for j := tlo; j < thi; j++ {
					l := leaves[j-tlo]
					r := (lo + j) * c.b
					c.mean[r+t] = tr.LeafMean(l)
					c.lvar[r+t] = tr.LeafVariance(l)
				}
			}
		})
		keyPool.Put(ksp)
	})
	for _, t := range slots {
		c.gen[t] = f.treeGen[t]
	}
}

// reconcile recomputes the slots Update refreshed since c's last use.
func (f *Forest) reconcile(c *poolCache) {
	var stale []int
	for t := range c.gen {
		if c.gen[t] != f.treeGen[t] {
			stale = append(stale, t)
		}
	}
	if len(stale) > 0 {
		f.refreshCache(c, stale)
	}
}

// aggregateCache folds c's per-tree predictions into (μ, σ) for the rows
// with the given indices; nil rows means every row in order. The Welford
// accumulation runs in the same slot order as PredictWithUncertainty —
// the bit-identity contract.
func (f *Forest) aggregateCache(c *poolCache, rows []int) (mu, sigma []float64) {
	n := len(rows)
	if rows == nil {
		n = len(c.X)
	}
	mu = make([]float64, n)
	sigma = make([]float64, n)
	f.parallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := i
			if rows != nil {
				row = rows[i]
			}
			base := row * c.b
			var mean, m2, leafVar float64
			for t := 0; t < c.b; t++ {
				m := c.mean[base+t]
				d := m - mean
				mean += d / float64(t+1)
				m2 += d * (m - mean)
				leafVar += c.lvar[base+t]
			}
			mu[i], sigma[i] = f.finishMoments(mean, m2, leafVar)
		}
	})
	return mu, sigma
}

// PredictPool returns μ and σ for the pool rows with the given indices,
// aggregated from the cached per-tree predictions. Slots refreshed by
// Update since the last call are recomputed first (and only those). The
// results are bit-identical to PredictBatch over the same rows.
//
// PredictPool requires a preceding BindPool and panics without one. Like
// Update it must not run concurrently with other forest calls.
func (f *Forest) PredictPool(rows []int) (mu, sigma []float64) {
	c := f.cache
	if c == nil {
		panic("forest: PredictPool without BindPool")
	}
	f.reconcile(c)
	return f.aggregateCache(c, rows)
}

// PredictCached returns μ and σ for every row of X, serving from (and
// maintaining) a per-tree prediction cache keyed by X's identity. The
// first call for a matrix fills its cache (the cost of one PredictBatch);
// later calls after partial Updates recompute only the refreshed slots —
// the experiment harness uses this for the held-out test matrix it
// re-predicts at every checkpoint. Results are bit-identical to
// PredictBatch(X).
//
// Auxiliary matrices live alongside the BindPool slot, so a run can keep
// both the scoring pool and the test matrix cached. Rows of X must not be
// mutated while cached, and like Update this must not run concurrently
// with other forest calls. PredictCached implements
// core.CachedBatchPredictor.
func (f *Forest) PredictCached(X [][]float64) (mu, sigma []float64) {
	var c *poolCache
	if f.cache != nil && sameMatrix(f.cache.X, X) {
		c = f.cache
	}
	if c == nil {
		for _, a := range f.aux {
			if sameMatrix(a.X, X) {
				c = a
				break
			}
		}
	}
	if c == nil {
		c = f.newPoolCache(X)
		f.aux = append(f.aux, c)
		return f.aggregateCache(c, nil)
	}
	f.reconcile(c)
	return f.aggregateCache(c, nil)
}
