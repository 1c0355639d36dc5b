package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/space"
)

// This file implements the presorted-column training engine. The
// reference builder (reference_test.go) re-sorts every numeric candidate
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
// The inner loops are shaped for the CPU rather than for the reader:
//
//   - A column order is one packed uint64 per sample, rank<<32 |
//     position, so the split scan and the partition stream a single
//     8-byte array per column. Sorting entries as integers is sorting by
//     (rank, position).
//   - The stable partitions are branch-free: every element is written to
//     both the left run and the scratch run, and both counters advance by
//     the 0/1 mask value. The left/right direction is close to a coin
//     flip per element, so a branch on it mispredicts about half the time.
//   - The numeric split scan is one pass. It keeps the running Σy and Σy²
//     and writes (left count, Σy, Σy²) at every position into a buffer
//     that advances only at a boundary between distinct ranks; gains are
//     then evaluated over those boundaries only, and the threshold is
//     computed once per node, for the winning split.
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
//     Two neighbours of that order hold equal values exactly when they
//     hold equal ranks, so "same rank" is the reference's "same value"
//     test, ±0 included.
//   - A node's sample list (idx) is always in ascending sample order in
//     both builders (the root is 0..n-1 and stable partitioning
//     preserves relative order), so leaf statistics and categorical
//     accumulators sum the same values in the same sequence.
//   - A stably partitioned segment of a (value, position)-sorted order
//     is exactly the (value, position)-sort of the child's samples, so
//     numeric prefix sums visit targets in the same sequence as the
//     reference's per-node sort. Writing every element to both runs
//     changes which slots hold stale copies, never the order of the runs.
//   - The one-pass scan's totals are its final prefix sums, which add
//     the same targets in the same order as the reference's separate
//     totals loop, and each recorded boundary carries exactly the prefix
//     the reference holds at that position. The gains are the same
//     expressions over the same operands, visited in the same order with
//     the same strict >, so the same boundary wins, and its threshold is
//     the same (X[a][f] + X[b][f]) / 2 over the same two samples.
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
// the full set passes 0..n-1. The tree depends only on the materialised
// sample — FitRanked on the full set of that sample builds the same tree
// and consumes r identically. r drives the random-subspace feature
// sampling and may be nil when cfg.MaxFeatures selects all features. ws
// is reused across calls; nil allocates a throwaway workspace.
func FitRanked(rk *Ranks, y []float64, picks []int32, cfg Config, r *rng.RNG, ws *Workspace) (*Regressor, error) {
	if len(rk.x) != len(y) {
		return nil, fmt.Errorf("tree: len(X)=%d but len(y)=%d", len(rk.x), len(y))
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	if len(y) > math.MaxInt32 || len(picks) > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d rows, %d samples: column entries hold 32-bit ranks and positions", len(y), len(picks))
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
		scratchIdx: ws.scratchIdx[:n], scratchCol: ws.scratchCol[:n],
	}
	for k, p := range picks {
		b.X[k], b.y[k] = rk.x[p], y[p]
		b.idx[k] = int32(k)
	}
	b.presort(rk, picks)
	b.t = &ws.tree
	b.t.reset()
	b.build(0, n, 0)
	return ws.detach(rk.features, cfg), nil
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

	// t is the tree under construction, in the workspace's buffers.
	t *Regressor

	idx        []int32
	mask       []uint8
	scratchIdx []int32
	scratchCol []uint64

	// present/bestCats alias workspace scratch; present holds the last
	// categorical candidate's category stats (sorted by mean), bestCats
	// the left categories of the node's current best categorical split.
	present  []catStat
	bestCats []int32
}

// psSplit is the presorted engine's split candidate. Unlike the
// reference's split it carries neither a threshold nor a materialised
// category bitmap: the winning split's threshold or bitmap is
// reconstructed exactly once per node, from the boundary position or
// from bestCats, instead of on every improvement.
type psSplit struct {
	feature int
	left    int // numeric: the segment's first left column entries go left
	gain    float64
	valid   bool
	isCat   bool
}

// presort fills each numeric column with the entries rank<<32 | position
// of the sample positions 0..n-1 sorted by (value, position), by a
// stable counting sort keyed on the rank of the row each position was
// drawn from. The tree performs no comparison sort at all.
func (b *psBuilder) presort(rk *Ranks, picks []int32) {
	n := len(picks)
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
		col := b.ws.cols[f][:n]
		for k, p := range picks {
			l := rank[p]
			col[start[l]] = entry(l, k)
			start[l]++
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

// makeLeaf leaves node id a leaf over the sample segment idx, attaching
// the segment's sorted targets under Config.KeepTargets, and returns id.
func (b *psBuilder) makeLeaf(id int32, idx []int32) int32 {
	if b.cfg.KeepTargets {
		ts := make([]float64, len(idx))
		for k, i := range idx {
			ts[k] = b.y[i]
		}
		sort.Float64s(ts)
		b.t.setTargets(id, ts)
	}
	return id
}

// build grows the subtree over the sample segment [lo, hi) straight
// into the flat preorder arrays and returns its root's node id: the node
// is appended first, its left subtree follows it, and once the right
// subtree is in place the node is marked as a split pointing at it.
func (b *psBuilder) build(lo, hi, depth int) int32 {
	idxSeg := b.idx[lo:hi]
	mean, variance, count := b.leafStats(idxSeg)
	id := b.t.push(mean, variance, int32(count), int32(depth))
	if count < b.minSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return b.makeLeaf(id, idxSeg)
	}
	if variance <= 1e-300 { // pure node
		return b.makeLeaf(id, idxSeg)
	}

	best := b.findSplit(lo, hi)
	if !best.valid || best.gain < b.cfg.MinImpurityDecrease {
		return b.makeLeaf(id, idxSeg)
	}

	// Flag every sample's direction once (1 = left); the same mask then
	// drives the stable partition of idx and of every numeric column.
	// A categorical split's membership is marked in the workspace's
	// catIn scratch until the partition proves the split real.
	var threshold float64
	X, mask, f := b.X, b.mask, best.feature
	if best.isCat {
		catIn := b.ws.catIn[:b.features[f].NumCategories]
		for _, c := range b.bestCats {
			catIn[c] = true
		}
		for _, i := range idxSeg {
			c := int(X[i][f])
			mask[i] = bit(c >= 0 && c < len(catIn) && catIn[c])
		}
		for _, c := range b.bestCats {
			catIn[c] = false
		}
	} else {
		// The reference's threshold: the midpoint of the values either
		// side of the winning boundary, the same two samples.
		col := b.ws.cols[f][lo:hi]
		threshold = (X[uint32(col[best.left-1])][f] + X[uint32(col[best.left])][f]) / 2
		for _, i := range idxSeg {
			mask[i] = bit(X[i][f] <= threshold)
		}
	}

	nl := stablePartitionIdx(idxSeg, mask, b.scratchIdx)
	if nl == 0 || nl == len(idxSeg) {
		// Defensive: a degenerate partition means the split was not real.
		// idxSeg was permuted in place, but it still holds the same
		// samples and the leaf sorts its targets, so the leaf is
		// unaffected.
		return b.makeLeaf(id, idxSeg)
	}
	for g, ft := range b.features {
		if ft.Kind == space.FeatCategorical {
			continue
		}
		stablePartitionCol(b.ws.cols[g][lo:hi], mask, b.scratchCol)
	}

	key := Key(threshold)
	if best.isCat {
		key = b.t.newCatBitmap(b.features[f].NumCategories)
		for _, c := range b.bestCats {
			b.t.setCat(key, int(c))
		}
	}
	b.build(lo, lo+nl, depth+1) // preorder: the left child is id+1
	right := b.build(lo+nl, hi, depth+1)
	b.t.setSplit(id, f, key, best.isCat, right)
	return id
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
// segment [lo, hi) in one pass over the presorted column — no sort, no
// allocation. The pass writes the prefix sums at every position into the
// workspace's cut buffer but advances past them only at a boundary
// between distinct ranks, so it has no data-dependent branch; its final
// sums are the totals. The gains are then evaluated over the recorded boundaries only.
// The winner is returned as a column position, not a threshold: build
// computes the threshold once, for the node's winning split. constant
// reports a single-valued feature.
func (b *psBuilder) bestNumericSplit(lo, hi, f int) (psSplit, bool) {
	col := b.ws.cols[f][lo:hi]
	n := len(col)
	if col[0]>>32 == col[n-1]>>32 {
		return psSplit{}, true
	}

	y := b.y
	cuts := b.ws.cuts[:n]
	nc := 0
	var sum, sq float64
	rank := col[0] >> 32
	for k, e := range col {
		// A boundary before position k: samples 0..k-1 go left.
		cuts[nc] = cut{left: k, sum: sum, sq: sq}
		nc += int(bit(e>>32 != rank))
		rank = e >> 32
		yi := y[uint32(e)]
		sum += yi
		sq += yi * yi
	}
	parentSSE := sq - sum*sum/float64(n)

	best := psSplit{feature: f}
	minLeaf := b.minLeaf
	for _, c := range cuts[:nc] {
		nl, nr := c.left, n-c.left
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := sum - c.sum
		rightSq := sq - c.sq
		sse := (c.sq - c.sum*c.sum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if !best.valid || gain > best.gain {
			best.valid = true
			best.gain = gain
			best.left = nl
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

// entry packs a column entry: the dense rank of the sample's value in
// the high 32 bits, the sample position in the low 32. Comparing entries
// as integers compares (rank, position).
func entry(rank int32, pos int) uint64 { return uint64(uint32(rank))<<32 | uint64(uint32(pos)) }

// bit is 1 for true and 0 for false; the compiler lowers it to a flag
// move, not a branch.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// stablePartitionIdx stably partitions seg by mask (1 first) using
// scratch for the right-going run, returning the left count. Relative
// order is preserved on both sides, which keeps idx segments in
// ascending sample order — the invariant the bit-identity argument
// rests on. It is branch-free: each element is written to both runs and
// both counters advance by the mask value; the left write never passes
// the read position, so no unread element is overwritten.
func stablePartitionIdx(seg []int32, mask []uint8, scratch []int32) int {
	nl, nr := 0, 0
	for _, i := range seg {
		m := int(mask[i])
		seg[nl] = i
		scratch[nr] = i
		nl += m
		nr += 1 - m
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}

// stablePartitionCol stably partitions a column's entries by the mask of
// their sample positions, preserving the (rank, position) order within
// each side, branch-free as stablePartitionIdx.
func stablePartitionCol(col []uint64, mask []uint8, scratch []uint64) {
	nl, nr := 0, 0
	for _, e := range col {
		m := int(mask[uint32(e)])
		col[nl] = e
		scratch[nr] = e
		nl += m
		nr += 1 - m
	}
	copy(col[nl:], scratch[:nr])
}
