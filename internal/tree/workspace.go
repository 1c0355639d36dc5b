package tree

import (
	"slices"

	"repro/internal/space"
)

// Workspace holds the reusable buffers of the presorted-column training
// engine. One workspace serves any number of consecutive FitRanked
// calls — the buffers are re-sliced to each fit's dimensions and fully
// overwritten before use — so a forest worker that fits trees in a loop
// pays the allocation cost once instead of per tree (and, inside a tree,
// instead of per node).
//
// A Workspace is NOT safe for concurrent use; give each fitting
// goroutine its own. The fitted trees do not alias any workspace buffer:
// a tree is built in the workspace's flat arrays and copied out at its
// exact size (detach).
type Workspace struct {
	// rows/ys are the fit's materialised sample: rows[k] aliases the
	// training row that sample position k was drawn from.
	rows [][]float64
	ys   []float64

	// count holds the counting-sort buckets of presort, one per rank
	// level of the column being ordered, plus one.
	count []int32

	// idx is the per-node sample list, stably partitioned in place down
	// the recursion; idx segments are always in ascending sample order.
	idx []int32

	// cols[f] holds, for numeric feature f, one entry rank<<32 | position
	// per sample (see entry), sorted by (value, position); the split scan
	// streams it and every split partitions it. Entries of categorical
	// features are unused.
	cols [][]uint64

	// mask holds, per sample position, 1 if the sample goes left under
	// the node's chosen split and 0 if it goes right; it is fully
	// rewritten for each node's segment before the partition reads it.
	mask []uint8

	// scratchIdx/scratchCol buffer the right-going run of a stable
	// partition before it is copied back behind the left-going run.
	scratchIdx []int32
	scratchCol []uint64

	// cuts records the rank boundaries of one numeric split scan.
	cuts []cut

	// featOrder is the per-node feature visitation order (identity, or an
	// in-place Fisher–Yates shuffle draw-compatible with rng.Perm).
	featOrder []int

	// cats/present/bestCats are the categorical split scratch: per-
	// category accumulators, the compacted present-category list, and the
	// saved left-category set of the node's best categorical candidate.
	cats     []catStat
	present  []catStat
	bestCats []int32

	// catIn flags the left categories of the split being partitioned;
	// build clears every flag it sets before recursing.
	catIn []bool

	// tree is the tree under construction: the builder appends its
	// nodes to these arrays, which the next fit reuses.
	tree Regressor
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the buffers for a fit of n samples of the ranked set rk,
// growing (never shrinking) capacities as needed.
func (w *Workspace) ensure(n int, rk *Ranks) {
	if cap(w.idx) < n {
		w.rows = make([][]float64, n)
		w.ys = make([]float64, n)
		w.idx = make([]int32, n)
		w.scratchIdx = make([]int32, n)
		w.scratchCol = make([]uint64, n)
		w.mask = make([]uint8, n)
		w.cuts = make([]cut, n)
	}
	features := rk.features
	d := len(features)
	if len(w.cols) < d {
		cols := make([][]uint64, d)
		copy(cols, w.cols)
		w.cols = cols
	}
	if cap(w.featOrder) < d {
		w.featOrder = make([]int, d)
	}
	maxCat := 0
	for f, ft := range features {
		if ft.Kind == space.FeatCategorical {
			if ft.NumCategories > maxCat {
				maxCat = ft.NumCategories
			}
			continue
		}
		if cap(w.cols[f]) < n {
			w.cols[f] = make([]uint64, n)
		}
		if cap(w.count) < rk.levels[f]+1 {
			w.count = make([]int32, rk.levels[f]+1)
		}
	}
	if cap(w.cats) < maxCat {
		w.cats = make([]catStat, maxCat)
		w.present = make([]catStat, 0, maxCat)
		w.bestCats = make([]int32, 0, maxCat)
		w.catIn = make([]bool, maxCat)
	}
}

// cut is a candidate numeric split boundary: left samples go left, and
// sum/sq are their Σy and Σy² in column order.
type cut struct {
	left    int
	sum, sq float64
}

// reset empties the tree's arrays for a new build, keeping capacity.
// Leaf targets are never reused: each fit's belong to its tree.
func (t *Regressor) reset() {
	t.nodes, t.count, t.catBits = t.nodes[:0], t.count[:0], t.catBits[:0]
	t.mean, t.variance = t.mean[:0], t.variance[:0]
	t.targets, t.depth, t.hasCat = nil, 0, false
}

// detach copies the tree just built in the workspace out at its exact
// size, so the workspace's arrays are free for the next fit.
func (w *Workspace) detach(features []space.Feature, cfg Config) *Regressor {
	b := &w.tree
	n := len(b.nodes)
	stats := make([]float64, 2*n)
	copy(stats, b.mean)
	copy(stats[n:], b.variance)
	return &Regressor{
		features: features, cfg: cfg,
		nodes: slices.Clone(b.nodes), count: slices.Clone(b.count),
		mean: stats[:n:n], variance: stats[n:],
		targets: slices.Clip(b.targets), catBits: append([]uint64(nil), b.catBits...),
		depth: b.depth, hasCat: b.hasCat,
	}
}
