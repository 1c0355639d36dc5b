package tree

import "repro/internal/space"

// Workspace holds the reusable buffers of the presorted-column training
// engine. One workspace serves any number of consecutive FitWorkspace
// calls — the buffers are re-sliced to each fit's dimensions and fully
// overwritten before use — so a forest worker that fits trees in a loop
// pays the allocation cost once instead of per tree (and, inside a tree,
// instead of per node).
//
// A Workspace is NOT safe for concurrent use; give each fitting
// goroutine its own. The fitted trees do not alias any workspace buffer
// except the node arena chunks, which are write-once: entries handed out
// by newNode are owned by the tree that received them and are never
// touched again by the workspace.
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

	// ords[f] holds, for numeric feature f, the sample positions sorted
	// by (value, position); vals[f][k] caches X[ords[f][k]][f] so the
	// split scan streams contiguous memory. Both are partitioned together
	// at every split. Entries of categorical features are unused.
	ords [][]int32
	vals [][]float64

	// mask flags, per sample position, whether the sample goes left under
	// the node's chosen split; it is fully rewritten for each node's
	// segment before the partition reads it.
	mask []bool

	// scratchIdx/scratchVals buffer the right-going run of a stable
	// partition before it is copied back behind the left-going run.
	scratchIdx  []int32
	scratchVals []float64

	// featOrder is the per-node feature visitation order (identity, or an
	// in-place Fisher–Yates shuffle draw-compatible with rng.Perm).
	featOrder []int

	// cats/present/bestCats are the categorical split scratch: per-
	// category accumulators, the compacted present-category list, and the
	// saved left-category set of the node's best categorical candidate.
	cats     []catStat
	present  []catStat
	bestCats []int32

	// arena is the current node allocation chunk; nodes are handed out
	// sequentially and chunks are abandoned to their trees when full.
	arena     []node
	arenaUsed int
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
		w.scratchVals = make([]float64, n)
		w.mask = make([]bool, n)
	}
	features := rk.features
	d := len(features)
	if len(w.ords) < d {
		ords := make([][]int32, d)
		copy(ords, w.ords)
		w.ords = ords
		vals := make([][]float64, d)
		copy(vals, w.vals)
		w.vals = vals
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
		if cap(w.ords[f]) < n {
			w.ords[f] = make([]int32, n)
			w.vals[f] = make([]float64, n)
		}
		if cap(w.count) < rk.levels[f]+1 {
			w.count = make([]int32, rk.levels[f]+1)
		}
	}
	if cap(w.cats) < maxCat {
		w.cats = make([]catStat, maxCat)
		w.present = make([]catStat, 0, maxCat)
		w.bestCats = make([]int32, 0, maxCat)
	}
}

// arenaChunk is the node allocation granularity: one make per 512 nodes
// instead of one per node. Chunks are never recycled — the trees own
// their nodes — so reuse across fits is safe.
const arenaChunk = 512

// newNode hands out a zeroed node from the arena. Callers assign the
// full node value, so stale bytes can never leak between trees (chunks
// are freshly allocated and write-once anyway).
func (w *Workspace) newNode() *node {
	if w.arenaUsed == len(w.arena) {
		w.arena = make([]node, arenaChunk)
		w.arenaUsed = 0
	}
	nd := &w.arena[w.arenaUsed]
	w.arenaUsed++
	return nd
}
