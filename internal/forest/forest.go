// Package forest implements random-forest regression with the
// per-prediction uncertainty estimates that active learning needs.
//
// A forest is a bag of CART trees (internal/tree), each fitted to a
// bootstrap resample of the training set with random-subspace feature
// sampling. The point prediction of the forest is the mean of the tree
// predictions. The uncertainty σ comes in two flavours, selectable via
// Config.Uncertainty:
//
//   - BetweenTrees: the standard deviation of the individual tree
//     predictions, the spread the paper's §II-B refers to.
//   - TotalVariance: the law-of-total-variance estimator of Hutter et
//     al. 2014 (Algorithm runtime prediction, AIJ), which adds the mean
//     within-leaf variance to the between-tree spread. It is the more
//     faithful predictive variance when leaves are not pure.
//
// Training and batch prediction are parallelised across trees with a
// bounded worker pool (one goroutine per GOMAXPROCS).
package forest

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// UncertaintyKind selects how Forest computes σ.
type UncertaintyKind int

// The two uncertainty estimators; see the package comment.
const (
	BetweenTrees UncertaintyKind = iota
	TotalVariance
)

// Config controls forest construction. NumTrees <= 0 defaults to 64
// trees; Tree.MaxFeatures <= 0 considers all features at every split
// (scikit-learn's regression default, and clearly stronger than d/3 on
// these response surfaces — tree diversity then comes from bagging
// alone).
type Config struct {
	// NumTrees is the ensemble size B.
	NumTrees int

	// Tree configures the individual CART learners. Tree.MaxFeatures <= 0
	// is replaced by max(1, d/3).
	Tree tree.Config

	// Uncertainty selects the σ estimator (default BetweenTrees).
	Uncertainty UncertaintyKind

	// Workers bounds fitting/prediction parallelism; <= 0 means
	// GOMAXPROCS.
	Workers int

	// DisableBagging fits every tree on the full training set (random
	// subspace only). Used by ablation benchmarks.
	DisableBagging bool
}

func (c Config) numTrees() int {
	if c.NumTrees <= 0 {
		return 64
	}
	return c.NumTrees
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Forest is a fitted random-forest regressor.
type Forest struct {
	trees    []*tree.Regressor
	compiled []*tree.Compiled // flat inference engines, aligned with trees
	features []space.Feature
	cfg      Config
	oob      float64 // out-of-bag RMSE; NaN if unavailable

	// nextRefresh is the ensemble rotation position of partial updates
	// (see Update); it ensures successive updates cycle all trees.
	nextRefresh int

	// treeGen counts how many times each ensemble slot has been
	// replaced by Update; the cross-scan score cache (pool.ScanCache,
	// via SlotGens) compares it against its own snapshot to recompute
	// only refreshed slots.
	treeGen []uint64
}

// Fit trains a forest on (X, y) with the column description features.
// r seeds the per-tree bootstrap and subspace randomness; each tree gets
// an independent child stream so results do not depend on scheduling.
func Fit(X [][]float64, y []float64, features []space.Feature, cfg Config, r *rng.RNG) (*Forest, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("forest: len(X)=%d but len(y)=%d", len(X), len(y))
	}
	if r == nil {
		return nil, fmt.Errorf("forest: nil generator")
	}
	d := len(features)
	if d == 0 {
		return nil, fmt.Errorf("forest: no features")
	}

	// Rank the training columns once (this also validates X); every tree
	// derives its presorted column orders from these shared, read-only
	// ranks with a counting sort of its own sample.
	ranks, err := tree.RankColumns(X, features)
	if err != nil {
		return nil, err
	}
	treeCfg := cfg.Tree

	b := cfg.numTrees()
	n := len(X)
	trees := make([]*tree.Regressor, b)
	compiled := make([]*tree.Compiled, b)
	inBag := make([][]bool, b) // inBag[t][i]: sample i used by tree t
	errs := make([]error, b)
	var identity []int32 // the DisableBagging sample: every row once
	if cfg.DisableBagging {
		identity = make([]int32, n)
		for i := range identity {
			identity[i] = int32(i)
		}
	}

	// One goroutine per worker slot, each fitting a strided subset of the
	// ensemble with slot-local scratch: a tree.Workspace (the presorted
	// engine's reusable buffers) and one bootstrap picks buffer reused
	// across all of the slot's trees instead of allocated per tree.
	// Per-tree RNG streams come from r.Child(t), so the fitted forest is
	// independent of worker count and scheduling.
	workers := cfg.workers()
	if workers > b {
		workers = b
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := tree.NewWorkspace()
			picks := identity
			if !cfg.DisableBagging {
				picks = make([]int32, n)
			}
			for t := w; t < b; t += workers {
				tr := r.Child(uint64(t))
				if !cfg.DisableBagging {
					bag := make([]bool, n)
					drawBootstrap(picks, bag, tr)
					inBag[t] = bag
				}
				trees[t], errs[t] = tree.FitRanked(ranks, y, picks, treeCfg, tr, ws)
				if errs[t] == nil {
					compiled[t] = trees[t].Compile()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	f := &Forest{
		trees: trees, compiled: compiled, features: features, cfg: cfg,
		oob: math.NaN(), treeGen: make([]uint64, b),
	}
	if !cfg.DisableBagging {
		f.oob = f.oobRMSE(X, y, inBag)
	}
	return f, nil
}

// drawBootstrap fills picks with a bootstrap resample of len(picks) rows
// (one tr.Intn draw per sample, in order) and, when bag is non-nil, flags
// every drawn row in it.
func drawBootstrap(picks []int32, bag []bool, tr *rng.RNG) {
	n := len(picks)
	for i := range picks {
		j := tr.Intn(n)
		picks[i] = int32(j)
		if bag != nil {
			bag[j] = true
		}
	}
}

// oobRMSE computes the out-of-bag RMSE: each sample is predicted only by
// the trees whose bootstrap excluded it. Rows are chunked across the
// worker pool; each chunk is keyed once and walks the compiled trees
// eight rows at a time (see ScoreBatch), tree loop outermost per tile.
// Each row's vote sum still accumulates in ascending tree order and the
// final reduction runs serially in row order, so the result is
// bit-identical regardless of worker count.
func (f *Forest) oobRMSE(X [][]float64, y []float64, inBag [][]bool) float64 {
	n := len(X)
	d := len(f.features)
	sums := make([]float64, n)
	votes := make([]int, n)
	f.parallelRows(n, func(lo, hi int) {
		ksp, xk := keyRows(X[lo:hi], d)
		var buf tileLeaves
		tiles(hi-lo, &buf, func(tlo, thi int, leaves []int32) {
			for t, tr := range f.compiled {
				walkLeaves(tr, xk[tlo*d:], d, leaves)
				bag := inBag[t]
				for j := tlo; j < thi; j++ {
					i := lo + j
					if bag[i] {
						continue
					}
					sums[i] += tr.LeafMean(leaves[j-tlo])
					votes[i]++
				}
			}
		})
		keyPool.Put(ksp)
	})
	var sse float64
	covered := 0
	for i := range X {
		if votes[i] == 0 {
			continue
		}
		d := sums[i]/float64(votes[i]) - y[i]
		sse += d * d
		covered++
	}
	if covered == 0 {
		return math.NaN()
	}
	return math.Sqrt(sse / float64(covered))
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// OOBRMSE returns the out-of-bag RMSE recorded at fit time, or NaN when
// bagging was disabled or no sample was ever out of bag.
func (f *Forest) OOBRMSE() float64 { return f.oob }

// Predict returns the forest's point prediction for x.
func (f *Forest) Predict(x []float64) float64 {
	m, _ := f.PredictWithUncertainty(x)
	return m
}

// PredictWithUncertainty returns the prediction mean μ and uncertainty σ
// for x, with σ computed per the configured estimator. It walks the
// compiled flat trees and accumulates the between-tree variance with
// Welford's algorithm: the naive sumSq/b − μ² form catastrophically
// cancels when μ is large relative to σ (e.g. execution times near 1e8
// with milli-scale spread), silently zeroing σ and degenerating the
// uncertainty-driven strategies into pure exploitation.
func (f *Forest) PredictWithUncertainty(x []float64) (mu, sigma float64) {
	var mean, m2, leafVar float64
	for t, c := range f.compiled {
		m, v, _ := c.PredictStats(x)
		d := m - mean
		mean += d / float64(t+1)
		m2 += d * (m - mean)
		leafVar += v
	}
	return f.finishMoments(mean, m2, leafVar)
}

// predictReference is PredictWithUncertainty on the pointer-walking
// trees; the Welford accumulation is kept operation-for-operation
// identical so the two engines return bit-identical results.
func (f *Forest) predictReference(x []float64) (mu, sigma float64) {
	var mean, m2, leafVar float64
	for t, tr := range f.trees {
		m, v, _ := tr.PredictWithStats(x)
		d := m - mean
		mean += d / float64(t+1)
		m2 += d * (m - mean)
		leafVar += v
	}
	return f.finishMoments(mean, m2, leafVar)
}

// finishMoments converts Welford accumulator state into (μ, σ) per the
// configured uncertainty estimator. Welford's m2 is non-negative by
// construction; the clamp only guards hypothetical rounding residue.
func (f *Forest) finishMoments(mean, m2, leafVar float64) (mu, sigma float64) {
	b := float64(len(f.trees))
	variance := m2 / b
	if variance < 0 {
		variance = 0
	}
	if f.cfg.Uncertainty == TotalVariance {
		variance += leafVar / b
	}
	return mean, math.Sqrt(variance)
}

// PredictBatch predicts all rows of X in parallel, returning μ and σ
// vectors. It is the hot path of Algorithm 1's scoring step and runs on
// the compiled flat engine.
//
// Each worker's row chunk runs through the blocked ScoreBatch kernel
// (tree-block × row-tile; see scorer.go). Each row's Welford accumulator
// is still updated in ascending tree order, so results stay bit-identical
// to PredictWithUncertainty.
func (f *Forest) PredictBatch(X [][]float64) (mu, sigma []float64) {
	n := len(X)
	mu = make([]float64, n)
	sigma = make([]float64, n)
	f.parallelRows(n, func(lo, hi int) {
		f.ScoreBatch(X[lo:hi], mu[lo:hi], sigma[lo:hi])
	})
	return mu, sigma
}

// PredictBatchReference predicts all rows of X through the original
// pointer-walking tree nodes instead of the compiled flat arrays. It is
// retained as the equivalence baseline for the flat engine: tests assert
// bit-identical output, and benchmarks measure the speedup against it.
func (f *Forest) PredictBatchReference(X [][]float64) (mu, sigma []float64) {
	return f.batch(X, f.predictReference)
}

func (f *Forest) batch(X [][]float64, predict func([]float64) (float64, float64)) (mu, sigma []float64) {
	n := len(X)
	mu = make([]float64, n)
	sigma = make([]float64, n)
	f.parallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mu[i], sigma[i] = predict(X[i])
		}
	})
	return mu, sigma
}

// parallelRows splits [0, n) into one contiguous chunk per worker and
// runs fn on each chunk concurrently.
//
// Chunk boundaries are rounded up to multiples of the blocked kernels'
// rowTile, so only the final worker can receive a sub-tile remainder —
// every other chunk runs whole tiles through the blocked fast path, and
// the one ragged tail takes the kernels' scalar fallback. Without the
// alignment, a ragged division (e.g. n = workers×tile + 1) hands *every*
// worker a sub-tile remainder. Chunking remains a pure performance
// partition: fn sees the same disjoint cover of [0, n) semantics for any
// worker count.
func (f *Forest) parallelRows(n int, fn func(lo, hi int)) {
	workers := f.cfg.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	chunk = (chunk + rowTile - 1) / rowTile * rowTile
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// FeatureUsage returns the fraction of internal-node splits that use each
// feature, a cheap importance proxy summed over all trees.
func (f *Forest) FeatureUsage() []float64 {
	totals := make([]float64, len(f.features))
	var all float64
	for _, tr := range f.trees {
		for i, c := range tr.SplitCounts() {
			totals[i] += float64(c)
			all += float64(c)
		}
	}
	if all > 0 {
		for i := range totals {
			totals[i] /= all
		}
	}
	return totals
}

// PermutationImportance returns the increase in RMSE on (X, y) when each
// feature column is permuted, averaged over rounds; larger is more
// important. r drives the permutations.
func (f *Forest) PermutationImportance(X [][]float64, y []float64, rounds int, r *rng.RNG) []float64 {
	if rounds <= 0 {
		rounds = 1
	}
	base := f.rmseOn(X, y)
	d := len(f.features)
	imp := make([]float64, d)
	col := make([]float64, len(X))
	scratch := make([][]float64, len(X))
	for i := range scratch {
		scratch[i] = make([]float64, d)
		copy(scratch[i], X[i])
	}
	for j := 0; j < d; j++ {
		var acc float64
		for round := 0; round < rounds; round++ {
			for i := range X {
				col[i] = X[i][j]
			}
			r.Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
			for i := range scratch {
				scratch[i][j] = col[i]
			}
			acc += f.rmseOn(scratch, y) - base
		}
		for i := range scratch {
			scratch[i][j] = X[i][j]
		}
		imp[j] = acc / float64(rounds)
	}
	return imp
}

func (f *Forest) rmseOn(X [][]float64, y []float64) float64 {
	mu, _ := f.PredictBatch(X)
	var sse float64
	for i := range y {
		d := mu[i] - y[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(y)))
}

// TreeDepthStats returns the min, mean and max depth across trees,
// useful for diagnostics and tests.
func (f *Forest) TreeDepthStats() (min int, mean float64, max int) {
	min, max = math.MaxInt, 0
	var sum int
	for _, tr := range f.trees {
		d := tr.Depth()
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		sum += d
	}
	mean = float64(sum) / float64(len(f.trees))
	return min, mean, max
}
