package tree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/space"
)

// This file implements the presorted-column training engine. The
// reference builder (reference.go) re-sorts every numeric candidate
// column at every node — O(m log m) comparisons and a fresh index slice
// per feature per node. Here each numeric column of the training set is
// ranked ONCE (RankColumns: one sort, dense ranks), however many trees
// are then fitted to row samples of it. A tree derives each column's
// sample order, sorted by (value, sample position), from the ranks with
// an O(n + levels) counting sort, and threads it down the recursion: at
// every split the node's segment of each column order is stably
// partitioned with the left/right mask, so both children inherit
// already-sorted segments and split search degenerates to a single
// allocation-free linear scan.
//
// Bit-identity with the reference builder is a hard invariant, pinned by
// presort_test.go. It holds because:
//
//   - Feature values are finite (validateMatrix), so < is a total order
//     on each column and the dense rank (ties by ==, so -0 and +0 share
//     a rank) orders rows exactly as their values do. A counting sort of
//     sample positions 0..n-1 keyed by the rank of the row each position
//     was drawn from is stable in position, so it yields exactly the
//     (value, position) order the reference's comparator sort defines.
//   - A node's sample list (idx) is always in ascending sample order in
//     both builders (the root is 0..n-1 and stable partitioning
//     preserves relative order), so leaf statistics and categorical
//     accumulators sum the same values in the same sequence.
//   - A stably partitioned segment of a (value, position)-sorted order
//     is exactly the (value, position)-sort of the child's samples, so
//     numeric prefix sums visit targets in the same sequence as the
//     reference's per-node sort.
//   - The per-node feature visitation order performs the same Intn draws
//     as rng.Perm (a full backward Fisher–Yates, merely allocation-free),
//     so both builders consume identical RNG streams. A draw-on-demand
//     partial shuffle would be cheaper but cannot reproduce rng.Perm's
//     output: perm[0] depends on every swap of the backward pass.

// Ranks is a training matrix whose numeric columns have been ranked once,
// ready for any number of FitRanked calls on row samples of it. It is
// read-only after RankColumns returns, so concurrent fits may share it.
type Ranks struct {
	x        [][]float64
	features []space.Feature

	// rank[f][i] is the dense rank of X[i][f] among column f's distinct
	// values (0 for the smallest); levels[f] is the number of distinct
	// values. Both are unset for categorical columns.
	rank   [][]int32
	levels []int
}

// RankColumns validates X against features — a non-empty matrix of
// finite values, one column per feature — and ranks each numeric column
// with one sort. Equal values (by ==, so -0 and +0) share a rank.
func RankColumns(X [][]float64, features []space.Feature) (*Ranks, error) {
	if err := validateMatrix(X, features); err != nil {
		return nil, err
	}
	n := len(X)
	d := len(features)
	rk := &Ranks{x: X, features: features, rank: make([][]int32, d), levels: make([]int, d)}
	type entry struct {
		v float64
		i int32
	}
	col := make([]entry, n)
	for f, ft := range features {
		if ft.Kind == space.FeatCategorical {
			continue
		}
		for i, row := range X {
			col[i] = entry{row[f], int32(i)}
		}
		slices.SortFunc(col, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
		rank := make([]int32, n)
		level := int32(0)
		for k, e := range col {
			if k > 0 && e.v != col[k-1].v {
				level++
			}
			rank[e.i] = level
		}
		rk.rank[f] = rank
		rk.levels[f] = int(level) + 1
	}
	return rk, nil
}

// FitRanked builds a regression tree on the row sample picks of a ranked
// training set: sample k is the row (X[picks[k]], y[picks[k]]) of the
// matrix X that rk ranked, so a bootstrap resample passes its draws and
// the full set passes 0..n-1. The tree is bit-identical to Fit on the
// materialised sample and consumes r identically. ws is reused across
// calls; nil allocates a throwaway workspace.
func FitRanked(rk *Ranks, y []float64, picks []int32, cfg Config, r *rng.RNG, ws *Workspace) (*Regressor, error) {
	if len(rk.x) != len(y) {
		return nil, fmt.Errorf("tree: len(X)=%d but len(y)=%d", len(rk.x), len(y))
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	for k, p := range picks {
		if p < 0 || int(p) >= len(y) {
			return nil, fmt.Errorf("tree: sample %d picks row %d of %d", k, p, len(y))
		}
	}
	mtry, err := resolveMtry(len(rk.features), cfg, r)
	if err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	n := len(picks)
	ws.ensure(n, rk)

	b := &psBuilder{
		X: ws.rows[:n], y: ws.ys[:n], features: rk.features, cfg: cfg, mtry: mtry, r: r, ws: ws,
		minLeaf: cfg.minLeaf(), minSplit: cfg.minSplit(),
		idx: ws.idx[:n], mask: ws.mask[:n],
		scratchIdx: ws.scratchIdx[:n], scratchVals: ws.scratchVals[:n],
	}
	for k, p := range picks {
		b.X[k], b.y[k] = rk.x[p], y[p]
		b.idx[k] = int32(k)
	}
	b.presort(rk, picks)
	root := b.build(0, n, 0)
	return &Regressor{features: rk.features, root: root, cfg: cfg}, nil
}

// psBuilder carries the state of one presorted induction run. The slice
// fields are views into the workspace buffers, resliced to this fit's
// dimensions; X and y hold the materialised sample rows.
type psBuilder struct {
	X        [][]float64
	y        []float64
	features []space.Feature
	cfg      Config
	mtry     int
	minLeaf  int
	minSplit int
	r        *rng.RNG
	ws       *Workspace

	idx         []int32
	mask        []bool
	scratchIdx  []int32
	scratchVals []float64

	// present/bestCats alias workspace scratch; present holds the last
	// categorical candidate's category stats (sorted by mean), bestCats
	// the left categories of the node's current best categorical split.
	present  []catStat
	bestCats []int32
}

// psSplit is the presorted engine's split candidate. Unlike the
// reference's split it carries no materialised category bitmap: the
// winning categorical split is reconstructed from bestCats exactly once
// per node, instead of allocating a bitmap per candidate.
type psSplit struct {
	feature   int
	threshold float64
	gain      float64
	valid     bool
	isCat     bool
}

// presort fills each numeric column's order with the sample positions
// 0..n-1 sorted by (value, position), by a stable counting sort keyed on
// the rank of the row each position was drawn from, and caches the
// sorted values alongside. The tree performs no comparison sort at all.
func (b *psBuilder) presort(rk *Ranks, picks []int32) {
	n := len(picks)
	X := b.X
	for f, rank := range rk.rank {
		if rank == nil {
			continue
		}
		// start[l] becomes the first output slot of rank l: bucket counts
		// shifted by one, then prefix-summed.
		start := b.ws.count[:rk.levels[f]+1]
		clear(start)
		for _, p := range picks {
			start[rank[p]+1]++
		}
		for l := 1; l < len(start); l++ {
			start[l] += start[l-1]
		}
		ord := b.ws.ords[f][:n]
		for k, p := range picks {
			l := rank[p]
			ord[start[l]] = int32(k)
			start[l]++
		}
		vals := b.ws.vals[f][:n]
		for k, i := range ord {
			vals[k] = X[i][f]
		}
	}
}

// leafStats computes mean/variance/count of y over a node's sample
// segment, in the same order (ascending sample position) and with the
// same operations as the reference builder.
func (b *psBuilder) leafStats(idx []int32) (mean, variance float64, count int) {
	var sum, sumSq float64
	y := b.y
	for _, i := range idx {
		sum += y[i]
		sumSq += y[i] * y[i]
	}
	n := float64(len(idx))
	mean = sum / n
	variance = sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against catastrophic cancellation
	}
	return mean, variance, len(idx)
}

func (b *psBuilder) makeLeaf(idx []int32, mean, variance float64, count int) *node {
	nd := b.ws.newNode()
	*nd = node{mean: mean, variance: variance, count: count}
	if b.cfg.KeepTargets {
		ts := make([]float64, len(idx))
		for k, i := range idx {
			ts[k] = b.y[i]
		}
		sort.Float64s(ts)
		nd.targets = ts
	}
	return nd
}

// build grows the subtree over the sample segment [lo, hi).
func (b *psBuilder) build(lo, hi, depth int) *node {
	idxSeg := b.idx[lo:hi]
	mean, variance, count := b.leafStats(idxSeg)
	if count < b.minSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return b.makeLeaf(idxSeg, mean, variance, count)
	}
	if variance <= 1e-300 { // pure node
		return b.makeLeaf(idxSeg, mean, variance, count)
	}

	best := b.findSplit(lo, hi)
	if !best.valid || best.gain < b.cfg.MinImpurityDecrease {
		return b.makeLeaf(idxSeg, mean, variance, count)
	}

	// Materialise the winning split's category bitmap (if categorical)
	// and flag every sample's direction once; the same mask then drives
	// the stable partition of idx and of every numeric column order.
	var catLeft []bool
	X, mask := b.X, b.mask
	if best.isCat {
		catLeft = make([]bool, b.features[best.feature].NumCategories)
		for _, c := range b.bestCats {
			catLeft[c] = true
		}
		for _, i := range idxSeg {
			c := int(X[i][best.feature])
			mask[i] = c >= 0 && c < len(catLeft) && catLeft[c]
		}
	} else {
		f, th := best.feature, best.threshold
		for _, i := range idxSeg {
			mask[i] = X[i][f] <= th
		}
	}

	nl := stablePartitionIdx(idxSeg, mask, b.scratchIdx)
	if nl == 0 || nl == len(idxSeg) {
		// Defensive: a degenerate partition means the split was not real.
		// idxSeg was permuted in place, but it still holds the same
		// samples and the leaf sorts its targets, so the leaf is
		// unaffected.
		return b.makeLeaf(idxSeg, mean, variance, count)
	}
	for f, ft := range b.features {
		if ft.Kind == space.FeatCategorical {
			continue
		}
		stablePartitionCol(b.ws.ords[f][lo:hi], b.ws.vals[f][lo:hi], mask, b.scratchIdx, b.scratchVals)
	}

	nd := b.ws.newNode()
	*nd = node{
		feature: best.feature, threshold: best.threshold, catLeft: catLeft,
		mean: mean, variance: variance, count: count,
	}
	nd.left = b.build(lo, lo+nl, depth+1)
	nd.right = b.build(lo+nl, hi, depth+1)
	return nd
}

// findSplit mirrors the reference findSplit: scan a random-subspace
// sample of features, skip constants without consuming the mtry quota,
// keep the strictly best gain (ties go to the earlier feature).
func (b *psBuilder) findSplit(lo, hi int) psSplit {
	d := len(b.features)
	perm := b.featureOrder(d)
	var best psSplit
	examined := 0
	for _, f := range perm {
		if examined >= b.mtry && best.valid {
			break
		}
		var s psSplit
		var prefix int
		var constant bool
		if b.features[f].Kind == space.FeatCategorical {
			s, prefix, constant = b.bestCategoricalSplit(lo, hi, f)
		} else {
			s, constant = b.bestNumericSplit(lo, hi, f)
		}
		if constant {
			continue
		}
		examined++
		if s.valid && (!best.valid || s.gain > best.gain) {
			best = s
			if s.isCat {
				b.saveBestCats(prefix)
			}
		}
	}
	return best
}

// featureOrder returns the feature visitation order: identity when all
// features are considered, otherwise an in-place backward Fisher–Yates
// shuffle that performs exactly the draws of rng.Perm (the RNG-stream
// compatibility guarantee) without its allocation.
func (b *psBuilder) featureOrder(d int) []int {
	ord := b.ws.featOrder[:d]
	for i := range ord {
		ord[i] = i
	}
	if b.mtry >= d || b.r == nil {
		return ord
	}
	for i := d - 1; i > 0; i-- {
		j := b.r.Intn(i + 1)
		ord[i], ord[j] = ord[j], ord[i]
	}
	return ord
}

// bestNumericSplit finds the best threshold split of feature f over the
// segment [lo, hi) by scanning the presorted column — no sort, no
// allocation. constant reports a single-valued feature.
func (b *psBuilder) bestNumericSplit(lo, hi, f int) (psSplit, bool) {
	ord := b.ws.ords[f][lo:hi]
	vals := b.ws.vals[f][lo:hi]
	n := len(ord)
	if vals[0] == vals[n-1] {
		return psSplit{}, true
	}

	y := b.y
	minLeaf := b.minLeaf
	var totalSum, totalSq float64
	for _, i := range ord {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	best := psSplit{feature: f}
	var leftSum, leftSq float64
	for k := 0; k < n-1; k++ {
		yi := y[ord[k]]
		leftSum += yi
		leftSq += yi * yi
		if vals[k] == vals[k+1] {
			continue // can only split between distinct values
		}
		nl, nr := k+1, n-k-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if !best.valid || gain > best.gain {
			best.valid = true
			best.gain = gain
			best.threshold = (vals[k] + vals[k+1]) / 2
		}
	}
	return best, false
}

// bestCategoricalSplit finds the best subset split of categorical
// feature f over [lo, hi) using the sort-categories-by-mean reduction on
// pooled scratch. It returns the best prefix length into b.present
// instead of materialising a bitmap; findSplit snapshots the categories
// only if this candidate wins the node.
func (b *psBuilder) bestCategoricalSplit(lo, hi, f int) (psSplit, int, bool) {
	ncat := b.features[f].NumCategories
	stats := b.ws.cats[:ncat]
	for c := range stats {
		stats[c] = catStat{cat: c}
	}
	idxSeg := b.idx[lo:hi]
	X, y := b.X, b.y
	for _, i := range idxSeg {
		c := int(X[i][f])
		if c < 0 || c >= ncat {
			// Out-of-range category values should be impossible for
			// encodings produced by space.Encode; treat as last category.
			c = ncat - 1
		}
		stats[c].count++
		stats[c].sum += y[i]
		stats[c].sumSq += y[i] * y[i]
	}
	present := b.ws.present[:0]
	for _, s := range stats {
		if s.count > 0 {
			present = append(present, s)
		}
	}
	b.present = present
	if len(present) < 2 {
		return psSplit{}, 0, true
	}
	sortCatsByMean(present)

	n := len(idxSeg)
	var totalSum, totalSq float64
	for _, s := range present {
		totalSum += s.sum
		totalSq += s.sumSq
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)
	minLeaf := b.minLeaf

	best := psSplit{feature: f, isCat: true}
	bestPrefix := -1
	var leftSum, leftSq float64
	leftCount := 0
	for k := 0; k < len(present)-1; k++ {
		leftSum += present[k].sum
		leftSq += present[k].sumSq
		leftCount += present[k].count
		nl, nr := leftCount, n-leftCount
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if !best.valid || gain > best.gain {
			best.valid = true
			best.gain = gain
			bestPrefix = k
		}
	}
	return best, bestPrefix, false
}

// saveBestCats snapshots the left categories (present[0..prefix]) of the
// node's new best categorical candidate into reused storage, so the
// bitmap is built at most once per node.
func (b *psBuilder) saveBestCats(prefix int) {
	bc := b.ws.bestCats[:0]
	for k := 0; k <= prefix; k++ {
		bc = append(bc, int32(b.present[k].cat))
	}
	b.bestCats = bc
}

// sortCatsByMean insertion-sorts category stats by (mean target,
// category index) — the same unique total order as the reference
// builder's sort.Slice comparator, without its allocations. Category
// lists are small (a handful of levels), where insertion sort wins
// anyway.
func sortCatsByMean(cs []catStat) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		cm := c.sum / float64(c.count)
		j := i - 1
		for j >= 0 {
			pm := cs[j].sum / float64(cs[j].count)
			if pm < cm || (pm == cm && cs[j].cat < c.cat) {
				break
			}
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// stablePartitionIdx stably partitions seg by mask (true first) using
// scratch for the right-going run, returning the left count. Relative
// order is preserved on both sides, which keeps idx segments in
// ascending sample order — the invariant the bit-identity argument
// rests on.
func stablePartitionIdx(seg []int32, mask []bool, scratch []int32) int {
	nl, nr := 0, 0
	for _, i := range seg {
		if mask[i] {
			seg[nl] = i
			nl++
		} else {
			scratch[nr] = i
			nr++
		}
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}

// stablePartitionCol stably partitions a column order and its aligned
// value cache together, preserving the (value, position) sort within
// each side.
func stablePartitionCol(ord []int32, vals []float64, mask []bool, sIdx []int32, sVals []float64) {
	nl, nr := 0, 0
	for k, i := range ord {
		v := vals[k]
		if mask[i] {
			ord[nl] = i
			vals[nl] = v
			nl++
		} else {
			sIdx[nr] = i
			sVals[nr] = v
			nr++
		}
	}
	copy(ord[nl:], sIdx[:nr])
	copy(vals[nl:], sVals[:nr])
}
