package forest

import (
	"sync"

	"repro/internal/tree"
)

// Blocked scoring kernel. ScoreKeyed takes rows keyed once per batch
// into transposed 8-row groups, walks the rows eight at a time through
// each tree, and runs a (tree-block × row-tile) loop nest:
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
// order), so the kernel stays bit-identical to PredictWithUncertainty
// no matter how the blocking divides the work. Every batch entry —
// ScoreKeyed (the streaming scan, whose rows arrive keyed from their
// level indices, and ScoreBatch behind PredictBatch), ScoreSlots (the
// cross-scan cache's partial rescore) and the out-of-bag pass — runs
// this one keyed walk; only PredictBatch and the out-of-bag pass key
// float rows (keyRows), and the scalar tree.Regressor.PredictStats
// serves single rows only.

// rowTile is the blocking tile: enough rows to amortize a tree's node
// array walking over a hot panel, small enough that the tile's keys
// (rowTile × d uint64) and its 3×rowTile float64 accumulator panel fit
// comfortably in L1 alongside the current node path. It is a multiple
// of 8, so only a batch's last tile can hold a ragged group.
const rowTile = 128

// treeBlockBytes is the L2 budget one tree block's node arrays must fit
// in. Paper-scale ensembles (64 trees on a few hundred training rows)
// fit a single block on any recent core, and blocking engages only for
// ensembles that genuinely overflow L2.
const treeBlockBytes = 1 << 20

// scoreScratch recycles the per-call accumulator block (two or three
// float64s per row) across calls and goroutines, so a streaming scan's
// steady-state allocation is zero no matter how many shards it scores.
var scoreScratch = sync.Pool{New: func() interface{} { s := []float64(nil); return &s }}

// accPanels checks out a zeroed accumulator block: the mean and m2
// panels, plus the leaf-variance panel only when withVar is set (leafVar
// is nil otherwise).
func accPanels(n int, withVar bool) (sp *[]float64, mean, m2, leafVar []float64) {
	panels := 2
	if withVar {
		panels = 3
	}
	sp = scoreScratch.Get().(*[]float64)
	if cap(*sp) < panels*n {
		*sp = make([]float64, panels*n)
	}
	s := (*sp)[:panels*n]
	for i := range s {
		s[i] = 0
	}
	if withVar {
		leafVar = s[2*n:]
	}
	return sp, s[:n], s[n : 2*n], leafVar
}

// treeBlocks partitions the ensemble's slots into contiguous runs whose
// summed node-array bytes stay within treeBlockBytes (every block holds
// at least one tree). Only the node array counts: the walk touches
// nothing else, and leaf statistics are read once per row at its end.
func treeBlocks(trees []*tree.Regressor) [][2]int {
	var blocks [][2]int
	b := len(trees)
	lo, sz := 0, 0
	for t, c := range trees {
		n := c.NodeBytes()
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

// keyPool recycles the keyed row groups of the batch kernels.
var keyPool = sync.Pool{New: func() interface{} { s := []uint64(nil); return &s }}

// keyRows keys every row of X once into 8-row feature-major groups:
// group g holds rows 8g..8g+7, with the key of feature f of lane k at
// xk[g*8d + f*8 + k] — the layout tree.Regressor.Leaf8T walks. A ragged
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

// padRaggedGroup fills the empty lanes of a ragged final 8-row group
// with copies of the last real row: any real row terminates the 8-lane
// walk, and pad lanes' results are simply never read.
func padRaggedGroup(xk []uint64, n, d int) {
	if n%8 == 0 {
		return
	}
	base := (n / 8) * 8 * d
	lastK := (n - 1) % 8
	for k := n % 8; k < 8; k++ {
		for f := 0; f < d; f++ {
			xk[base+f*8+k] = xk[base+f*8+lastK]
		}
	}
}

// walkLeaves writes tree c's leaf node id for every keyed row group of
// xk into leaves (len(leaves) = 8 × the number of groups, so pad lanes
// land in the tail and are never read).
func walkLeaves(c *tree.Regressor, xk []uint64, d int, leaves []int32) {
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
// each row is keyed once per batch and scored by ScoreKeyed.
func (f *Forest) ScoreBatch(X [][]float64, mu, sigma []float64) {
	if len(X) == 0 {
		return
	}
	ksp, xk := keyRows(X, len(f.features))
	f.ScoreKeyed(xk, mu, sigma)
	keyPool.Put(ksp)
}

// ScoreKeyed scores n = len(mu) rows handed over already keyed, in the
// 8-row feature-major groups keyRows builds (internal/pool.KeyedScorer:
// the pool scan keys candidates straight from their level indices). It
// is the one batch scoring entry behind ScoreBatch and the scan: every
// tree walks eight rows at a time through tree.Regressor.Leaf8T — whose
// routing equals the scalar walk's — and each row's Welford
// accumulation runs serially in ascending tree order no matter how the
// rows are batched, sharded or blocked. The pad lanes of a ragged final
// group are overwritten with copies of the last row.
func (f *Forest) ScoreKeyed(xk []uint64, mu, sigma []float64) {
	n := len(mu)
	if n == 0 {
		return
	}
	d := len(f.features)
	padRaggedGroup(xk, n, d)
	// Only TotalVariance reads the within-leaf variance sum; a
	// BetweenTrees forest never loads a leaf's variance and gets no
	// panel for it (finishMoments ignores the sum).
	total := f.cfg.Uncertainty == TotalVariance
	asp, mean, m2, leafVar := accPanels(n, total)
	blocks := treeBlocks(f.trees)
	var buf tileLeaves
	// The row tile stays on even when the whole ensemble is one resident
	// block: the eight concurrent walks consume keys fast enough that the
	// tile's L1 residence (rowTile × d keys, revisited by every tree of
	// the block) beats streaming the whole batch's keys from L2 per tree.
	for _, blk := range blocks {
		tiles(n, &buf, func(lo, hi int, leaves []int32) {
			for t := blk[0]; t < blk[1]; t++ {
				c := f.trees[t]
				walkLeaves(c, xk[lo*d:], d, leaves)
				bt := float64(t + 1)
				for j := lo; j < hi; j++ {
					pm := c.LeafMean(leaves[j-lo])
					dm := pm - mean[j]
					mean[j] += dm / bt
					m2[j] += dm * (pm - mean[j])
				}
				if total {
					for j := lo; j < hi; j++ {
						leafVar[j] += c.LeafVariance(leaves[j-lo])
					}
				}
			}
		})
	}
	for j := 0; j < n; j++ {
		var lv float64
		if total {
			lv = leafVar[j]
		}
		mu[j], sigma[j] = f.finishMoments(mean[j], m2[j], lv)
	}
	scoreScratch.Put(asp)
}

// NumSlots returns the ensemble size; part of the slot-scorer contract
// the cross-scan cache (internal/pool.ScanCache) keys its panels by.
func (f *Forest) NumSlots() int { return len(f.trees) }

// SlotGens returns a copy of the per-slot generation counters: a slot's
// counter advances exactly when Update replaces its tree, so equality of
// two SlotGens snapshots proves the slot's predictions are unchanged.
func (f *Forest) SlotGens() []uint64 {
	return append([]uint64(nil), f.treeGen...)
}

// ScoreSlots writes the leaf node id every requested ensemble slot's
// tree routes each of n = len(leaves) keyed rows (laid out as ScoreKeyed
// takes them) to into the panel rows (leaves[i][t]), leaving other
// slots' columns untouched. It is the cross-scan cache's
// partial-rescore entry: after a warm Update refreshed k of b trees,
// only those k slots are re-walked. Safe for concurrent calls on
// disjoint panel rows and key groups.
func (f *Forest) ScoreSlots(xk []uint64, slots []int, leaves [][]int32) {
	n := len(leaves)
	if n == 0 || len(slots) == 0 {
		return
	}
	d := len(f.features)
	padRaggedGroup(xk, n, d)
	var buf tileLeaves
	tiles(n, &buf, func(lo, hi int, tl []int32) {
		for _, t := range slots {
			walkLeaves(f.trees[t], xk[lo*d:], d, tl)
			for j := lo; j < hi; j++ {
				leaves[j][t] = tl[j-lo]
			}
		}
	})
}

// AggregateSlots folds full leaf-id panels into (μ, σ) per row, reading
// each slot's leaf statistics from its tree with the same ascending-slot
// Welford accumulation as ScoreBatch — given panels produced by
// ScoreSlots over all slots, the results are bit-identical to ScoreBatch
// on the same rows.
func (f *Forest) AggregateSlots(leaves [][]int32, mu, sigma []float64) {
	total := f.cfg.Uncertainty == TotalVariance
	for i, row := range leaves {
		row = row[:len(f.trees)]
		var m, m2, lv float64
		for t, tr := range f.trees {
			pm := tr.LeafMean(row[t])
			d := pm - m
			m += d / float64(t+1)
			m2 += d * (pm - m)
		}
		if total {
			for t, tr := range f.trees {
				lv += tr.LeafVariance(row[t])
			}
		}
		mu[i], sigma[i] = f.finishMoments(m, m2, lv)
	}
}
