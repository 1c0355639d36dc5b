package forest

import (
	"sync"

	"repro/internal/tree"
)

// Blocked scoring kernels. Both batch scorers — the exact ScoreBatch and
// the quantized ScoreBatchQ — key every row once per batch into
// transposed 8-row groups, walk the rows eight at a time through each
// tree, and run the same (tree-block × row-tile) loop nest:
//
//	for each tree block (node arrays totalling <= treeBlockBytes, ~L2)
//	    for each row tile (rowTile rows: keyed rows + accumulator panel, ~L1)
//	        for each tree of the block, in ascending ensemble order
//	            walk the tile's rows through the tree, eight lanes at a time
//
// One block's node arrays stay L2-resident while every tile streams
// through them, and one tile's keys and accumulator panel stay
// L1-resident while the block's trees revisit them — instead of the
// whole ensemble cycling through cache once per shard. Each row's
// Welford accumulation still happens in ascending tree order (blocks
// partition the ensemble in order, and every row visits the blocks in
// order), so the exact kernel stays bit-identical to
// PredictWithUncertainty no matter how the blocking divides the work.
// Every exact batch entry — ScoreBatch (behind PredictBatch and the
// streaming scan), ScoreSlots, the pool/aux cache refresh behind
// PredictPool and PredictCached, and the out-of-bag pass — runs this one
// keyed walk; the scalar Compiled.PredictStats serves single rows only.

// rowTile is the blocking tile: enough rows to amortize a tree's node
// array walking over a hot panel, small enough that the tile's keys
// (rowTile × d uint64/int32) and its 3×rowTile float64 accumulator
// panel fit comfortably in L1 alongside the current node path. It is a
// multiple of 8, so only a batch's last tile can hold a ragged group.
const rowTile = 128

// treeBlockBytes is the L2 budget one tree block's node arrays must fit
// in. Paper-scale ensembles (64 trees on a few hundred training rows)
// fit a single block on any recent core, and blocking engages only for
// ensembles that genuinely overflow L2.
const treeBlockBytes = 1 << 20

// scoreScratch recycles the per-call accumulator block (three float64s
// per row) across calls and goroutines, so a streaming scan's
// steady-state allocation is zero no matter how many shards it scores.
var scoreScratch = sync.Pool{New: func() interface{} { s := []float64(nil); return &s }}

// accPanels checks out a zeroed 3n-float64 accumulator block.
func accPanels(n int) (sp *[]float64, mean, m2, leafVar []float64) {
	sp = scoreScratch.Get().(*[]float64)
	if cap(*sp) < 3*n {
		*sp = make([]float64, 3*n)
	}
	s := (*sp)[:3*n]
	for i := range s {
		s[i] = 0
	}
	return sp, s[:n], s[n : 2*n], s[2*n : 3*n]
}

// treeBlocks partitions ensemble slots [0, b) into contiguous runs whose
// summed node-array bytes stay within treeBlockBytes (every block holds
// at least one tree). bytesOf reports slot t's node-array footprint.
func treeBlocks(b int, bytesOf func(t int) int) [][2]int {
	var blocks [][2]int
	lo, sz := 0, 0
	for t := 0; t < b; t++ {
		n := bytesOf(t)
		if t > lo && sz+n > treeBlockBytes {
			blocks = append(blocks, [2]int{lo, t})
			lo, sz = t, 0
		}
		sz += n
	}
	if lo < b {
		blocks = append(blocks, [2]int{lo, b})
	}
	return blocks
}

// keyPool recycles the keyed row groups of the exact kernels.
var keyPool = sync.Pool{New: func() interface{} { s := []uint64(nil); return &s }}

// keyRows keys every row of X once into 8-row feature-major groups:
// group g holds rows 8g..8g+7, with the key of feature f of lane k at
// xk[g*8d + f*8 + k] — the layout tree.Compiled.Leaf8T walks. A ragged
// final group pads its empty lanes (padRaggedGroup). Return sp to
// keyPool when done.
func keyRows(X [][]float64, d int) (sp *[]uint64, xk []uint64) {
	n := len(X)
	sz := (n + 7) / 8 * 8 * d
	sp = keyPool.Get().(*[]uint64)
	if cap(*sp) < sz {
		*sp = make([]uint64, sz)
	}
	xk = (*sp)[:sz]
	for j, row := range X {
		g, k := j/8, j%8
		tree.KeyRowStride(row[:d], xk[g*8*d+k:], 8)
	}
	padRaggedGroup(xk, n, d)
	return sp, xk
}

// walkLeaves writes tree c's leaf node id for every keyed row group of
// xk into leaves (len(leaves) = 8 × the number of groups, so pad lanes
// land in the tail and are never read).
func walkLeaves(c *tree.Compiled, xk []uint64, d int, leaves []int32) {
	for j := 0; j < len(leaves); j += 8 {
		leaves[j], leaves[j+1], leaves[j+2], leaves[j+3],
			leaves[j+4], leaves[j+5], leaves[j+6], leaves[j+7] = c.Leaf8T(xk[j*d : (j+8)*d])
	}
}

// tileLeaves is the leaf-id buffer of one row tile.
type tileLeaves [rowTile]int32

// tiles calls fn for each rowTile-row tile [lo, hi) of [0, n), with the
// tile's leaf buffer sized to its keyed groups (hi-lo rounded up to 8).
func tiles(n int, buf *tileLeaves, fn func(lo, hi int, leaves []int32)) {
	for lo := 0; lo < n; lo += rowTile {
		hi := lo + rowTile
		if hi > n {
			hi = n
		}
		fn(lo, hi, buf[:(hi-lo+7)/8*8])
	}
}

// ScoreBatch scores every row of X into the caller-provided mu/sigma
// buffers. It is the forest's implementation of the streaming pool
// scorer contract (internal/pool.BatchScorer): safe for concurrent calls
// (it only reads the fitted ensemble and uses pooled scratch) and
// bit-identical per row to PredictBatch and PredictWithUncertainty:
// each row is keyed once per batch, every tree walks eight rows at a
// time through tree.Compiled.Leaf8T — whose routing equals the scalar
// walk's — and each row's Welford accumulation runs serially in
// ascending tree order no matter how the rows are batched, sharded or
// blocked.
func (f *Forest) ScoreBatch(X [][]float64, mu, sigma []float64) {
	n := len(X)
	if n == 0 {
		return
	}
	d := len(f.features)
	ksp, xk := keyRows(X, d)
	asp, mean, m2, leafVar := accPanels(n)
	blocks := treeBlocks(len(f.compiled), func(t int) int {
		// The walk only touches the node array; leaf statistics are read
		// once per row at its end.
		return f.compiled[t].NodeBytes()
	})
	var buf tileLeaves
	// The row tile stays on even when the whole ensemble is one resident
	// block: the eight concurrent walks consume keys fast enough that the
	// tile's L1 residence (rowTile × d keys, revisited by every tree of
	// the block) beats streaming the whole batch's keys from L2 per tree.
	for _, blk := range blocks {
		tiles(n, &buf, func(lo, hi int, leaves []int32) {
			for t := blk[0]; t < blk[1]; t++ {
				c := f.compiled[t]
				walkLeaves(c, xk[lo*d:], d, leaves)
				bt := float64(t + 1)
				for j := lo; j < hi; j++ {
					l := leaves[j-lo]
					pm := c.LeafMean(l)
					dm := pm - mean[j]
					mean[j] += dm / bt
					m2[j] += dm * (pm - mean[j])
					leafVar[j] += c.LeafVariance(l)
				}
			}
		})
	}
	for j := 0; j < n; j++ {
		mu[j], sigma[j] = f.finishMoments(mean[j], m2[j], leafVar[j])
	}
	scoreScratch.Put(asp)
	keyPool.Put(ksp)
}

// NumSlots returns the ensemble size; part of the slot-scorer contract
// the cross-scan cache (internal/pool.ScanCache) keys its panels by.
func (f *Forest) NumSlots() int { return len(f.compiled) }

// ScorerIdentity keys cached cross-scan panels: a warm Update keeps the
// forest (its slot generations record what changed), while a fresh Fit
// returns a new forest — whose generation counters restart at zero — and
// therefore a new identity, forcing a cache cold start.
func (f *Forest) ScorerIdentity() interface{} { return f }

// SlotGens returns a copy of the per-slot generation counters: a slot's
// counter advances exactly when Update replaces its tree, so equality of
// two SlotGens snapshots proves the slot's predictions are unchanged.
func (f *Forest) SlotGens() []uint64 {
	return append([]uint64(nil), f.treeGen...)
}

// ScoreSlots writes the per-tree leaf mean and within-leaf variance of
// every row into the given panel rows (mean[i][t], lvar[i][t]) for only
// the requested ensemble slots, leaving other slots' columns untouched.
// It is the cross-scan cache's partial-rescore entry: after a warm
// Update refreshed k of b trees, only those k slots are re-walked. Safe
// for concurrent calls on disjoint panel rows.
func (f *Forest) ScoreSlots(X [][]float64, slots []int, mean, lvar [][]float64) {
	n := len(X)
	if n == 0 || len(slots) == 0 {
		return
	}
	d := len(f.features)
	ksp, xk := keyRows(X, d)
	var buf tileLeaves
	tiles(n, &buf, func(lo, hi int, leaves []int32) {
		for _, t := range slots {
			c := f.compiled[t]
			walkLeaves(c, xk[lo*d:], d, leaves)
			for j := lo; j < hi; j++ {
				l := leaves[j-lo]
				mean[j][t] = c.LeafMean(l)
				lvar[j][t] = c.LeafVariance(l)
			}
		}
	})
	keyPool.Put(ksp)
}

// AggregateSlots folds full per-tree panels into (μ, σ) per row, with
// the same ascending-slot Welford accumulation as ScoreBatch — given
// panels produced by ScoreSlots over all slots, the results are
// bit-identical to ScoreBatch on the same rows.
func (f *Forest) AggregateSlots(mean, lvar [][]float64, mu, sigma []float64) {
	b := len(f.compiled)
	for i := range mean {
		var m, m2, lv float64
		mrow, vrow := mean[i], lvar[i]
		for t := 0; t < b; t++ {
			pm := mrow[t]
			d := pm - m
			m += d / float64(t+1)
			m2 += d * (pm - m)
			lv += vrow[t]
		}
		mu[i], sigma[i] = f.finishMoments(m, m2, lv)
	}
}
