package forest

import (
	"fmt"
	"sync"

	"repro/internal/tree"
)

// Quantized scoring. EnableQuant compiles every ensemble slot into its
// float32 CompiledQ form (internal/tree); ScoreBatchQ then scores batches
// through the packed trees with the same keyed 8-lane walk and
// (tree-block × row-tile) blocking as ScoreBatch: each row is narrowed
// to float32 once per batch — into transposed feature-major 8-row
// groups — and rows walk the trees eight at a time
// (tree.CompiledQ.Leaf8T). Its only remaining edges over the exact
// kernel are the 8-byte packed nodes (twice as many trees per
// L2-resident block as the exact engine's 16-byte nodes) and plain
// moment sums in place of the Welford recurrence.
//
// The quantized path is opt-in and approximate (float32 leaf statistics;
// see the error bounds pinned in internal/tree/quant_test.go); the exact
// ScoreBatch path remains the default. Like every other
// forest entry, EnableQuant must not run concurrently with Update, but
// ScoreBatchQ is safe for concurrent calls once the quantized slots are
// compiled.

// quantState carries the compiled quantized slots plus the generation
// snapshot they were compiled at, so partial Updates recompile exactly
// the refreshed slots.
type quantState struct {
	compiled []*tree.CompiledQ
	gens     []uint64
}

// EnableQuant (re)compiles the quantized form of every ensemble slot
// whose tree changed since the last call (all of them, the first time).
// It fails only when a tree exceeds the packed node format's limits
// (tree.CompiledQ); the forest is unchanged on error.
func (f *Forest) EnableQuant() error {
	q := f.qstate
	if q == nil {
		q = &quantState{
			compiled: make([]*tree.CompiledQ, len(f.compiled)),
			gens:     make([]uint64, len(f.compiled)),
		}
	}
	for t, c := range f.compiled {
		if q.compiled[t] != nil && q.gens[t] == f.treeGen[t] {
			continue
		}
		qc, err := c.Quantize()
		if err != nil {
			return fmt.Errorf("forest: quantizing tree %d: %w", t, err)
		}
		q.compiled[t] = qc
		q.gens[t] = f.treeGen[t]
	}
	f.qstate = q
	return nil
}

// Quantized refreshes the quantized slots and returns the forest's
// quantized scorer view — a pool.BatchScorer/SlotScorer whose batches run
// on the packed float32 trees. The view reads the forest it came from;
// like the forest itself it must not be used concurrently with Update,
// and it must be re-obtained (or EnableQuant re-run) after one.
func (f *Forest) Quantized() (*QuantScorer, error) {
	if err := f.EnableQuant(); err != nil {
		return nil, err
	}
	return &QuantScorer{f: f}, nil
}

// QuantScorer is the quantized scoring view of a Forest.
type QuantScorer struct {
	f *Forest
}

// Forest returns the underlying forest.
func (q *QuantScorer) Forest() *Forest { return q.f }

// ScoreBatch implements pool.BatchScorer on the quantized trees.
func (q *QuantScorer) ScoreBatch(X [][]float64, mu, sigma []float64) {
	q.f.ScoreBatchQ(X, mu, sigma)
}

// NumSlots implements the slot-scorer contract.
func (q *QuantScorer) NumSlots() int { return len(q.f.compiled) }

// SlotGens implements the slot-scorer contract; generations advance with
// the underlying trees, so cache invalidation is shared with the exact
// path.
func (q *QuantScorer) SlotGens() []uint64 { return q.f.SlotGens() }

// quantIdent distinguishes the quantized view's cached panels from the
// exact view's over the same forest.
type quantIdent struct{ f *Forest }

// ScorerIdentity keys cached cross-scan panels; see Forest.ScorerIdentity.
// The identity follows the underlying forest (the QuantScorer view itself
// is re-obtained every scan), tagged so exact and quantized panels never
// mix.
func (q *QuantScorer) ScorerIdentity() interface{} { return quantIdent{q.f} }

// ScoreSlots writes the quantized per-tree leaf statistics of every row
// into the given panel rows for the requested slots only (see
// Forest.ScoreSlots). Values are the float64-widened float32 leaf
// statistics, so cached re-aggregation reproduces fresh quantized scores
// bit for bit. Rows walk the trees through the same transposed 8-lane
// kernel as ScoreBatchQ — this is the cross-scan cache's warm-rescore
// hot path.
func (q *QuantScorer) ScoreSlots(X [][]float64, slots []int, mean, lvar [][]float64) {
	n := len(X)
	if n == 0 || len(slots) == 0 {
		return
	}
	qs := q.f.qstate
	d := len(q.f.features)
	ng := (n + 7) / 8
	sp, xq := qrowScratch(ng * 8 * d)
	for j, row := range X {
		g, k := j/8, j%8
		tree.QuantizeRowStride(row, xq[g*8*d+k:], 8)
	}
	padRaggedGroup(xq, n, d)
	for _, t := range slots {
		c := qs.compiled[t]
		for j := 0; j < n; j += 8 {
			l0, l1, l2, l3, l4, l5, l6, l7 := c.Leaf8T(xq[j*d:(j+8)*d], d)
			leaves := [8]int32{l0, l1, l2, l3, l4, l5, l6, l7}
			for k := 0; k < 8 && j+k < n; k++ {
				l := leaves[k]
				mean[j+k][t] = c.LeafMean(l)
				lvar[j+k][t] = c.LeafVariance(l)
			}
		}
	}
	qrowPool.Put(sp)
}

// AggregateSlots folds full panels into (μ, σ) with the same
// sum/sum-of-squares arithmetic as ScoreBatchQ — ascending-slot folds of
// Σm, Σm² and Σvar finished by finishSums — so re-aggregating cached
// quantized panels reproduces fresh quantized scores bit for bit. (The
// exact view runs Welford instead; the two differ only by float
// re-association, inside the quantized path's documented tolerance.)
func (q *QuantScorer) AggregateSlots(mean, lvar [][]float64, mu, sigma []float64) {
	b := len(q.f.compiled)
	for i := range mean {
		var s1, s2, lv float64
		mrow, vrow := mean[i], lvar[i]
		for t := 0; t < b; t++ {
			pm := mrow[t]
			s1 += pm
			s2 += pm * pm
			lv += vrow[t]
		}
		mu[i], sigma[i] = q.f.finishSums(s1, s2, lv)
	}
}

// qrowPool recycles the key-form row-conversion scratch of the quantized
// kernels.
var qrowPool = sync.Pool{New: func() interface{} { s := []int32(nil); return &s }}

func qrowScratch(n int) (sp *[]int32, xq []int32) {
	sp = qrowPool.Get().(*[]int32)
	if cap(*sp) < n {
		*sp = make([]int32, n)
	}
	return sp, (*sp)[:n]
}

// padRaggedGroup fills the empty lanes of a ragged final 8-row group
// with copies of the last real row: any real row terminates the 8-lane
// walk, and pad lanes' results are simply never read. It serves both
// the exact kernel's uint64 keys and the quantized kernel's int32 keys.
func padRaggedGroup[K uint64 | int32](xq []K, n, d int) {
	if n%8 == 0 {
		return
	}
	base := (n / 8) * 8 * d
	lastK := (n - 1) % 8
	for k := n % 8; k < 8; k++ {
		for f := 0; f < d; f++ {
			xq[base+f*8+k] = xq[base+f*8+lastK]
		}
	}
}

// ScoreBatchQ scores every row of X through the quantized trees into the
// caller-provided mu/sigma buffers. EnableQuant (or Quantized) must have
// run since the last Update; ScoreBatchQ panics otherwise, mirroring
// PredictPool's contract. Safe for concurrent calls, and deterministic:
// per row, the moment sums accumulate in ascending tree order whatever
// the batching, so quantized streaming selections are invariant across
// shard sizes and worker counts exactly like exact ones.
func (f *Forest) ScoreBatchQ(X [][]float64, mu, sigma []float64) {
	qs := f.qstate
	if qs == nil {
		panic("forest: ScoreBatchQ without EnableQuant")
	}
	n := len(X)
	if n == 0 {
		return
	}
	for t, gen := range qs.gens {
		if gen != f.treeGen[t] {
			panic("forest: ScoreBatchQ with stale quantized slots; EnableQuant after Update")
		}
	}
	d := len(f.features)
	// Rows convert once per batch into 8-row feature-major groups: group
	// g holds rows 8g..8g+7 with feature f of lane k at
	// xq[g*8d + f*8 + k] — the layout Leaf8T wants. A ragged final group
	// pads its empty lanes with copies of the last real row (any real row
	// terminates the walk; pad lanes' results are simply not accumulated).
	ng := (n + 7) / 8
	rsp, xq := qrowScratch(ng * 8 * d)
	for j, row := range X {
		g, k := j/8, j%8
		tree.QuantizeRowStride(row, xq[g*8*d+k:], 8)
	}
	padRaggedGroup(xq, n, d)
	asp, s1, s2, leafVar := accPanels(n)
	blocks := treeBlocks(len(qs.compiled), func(t int) int {
		// The traversal only touches the 8-byte packed node array; leaf
		// statistic arrays are read once per row at the walk's end.
		return qs.compiled[t].NodeBytes()
	})
	// Unlike the exact kernel, the row tile stays on even when the whole
	// ensemble is one resident block: the eight concurrent traversal
	// chains consume transposed keys fast enough that the tile's
	// L1 residence (rowTile × d keys ≈ a few KB, revisited by every tree
	// of the block) is worth the loop overhead — measurably faster than
	// streaming the full shard's keys from L2 per tree.
	for _, blk := range blocks {
		for lo := 0; lo < n; lo += rowTile {
			hi := lo + rowTile
			if hi > n {
				hi = n
			}
			for t := blk[0]; t < blk[1]; t++ {
				c := qs.compiled[t]
				j := lo
				// Eight-lane fast path over full transposed groups; a
				// ragged final group (only possible in the last tile)
				// walks all eight padded lanes and accumulates the real
				// ones. The accumulators are plain sums (Σm, Σm², Σvar)
				// rather than the exact kernel's Welford recurrence:
				// three independent add chains per lane, nothing
				// serialized through a running mean.
				for ; j+8 <= hi; j += 8 {
					l0, l1, l2, l3, l4, l5, l6, l7 := c.Leaf8T(xq[j*d:(j+8)*d], d)
					pm := c.LeafMean(l0)
					s1[j] += pm
					s2[j] += pm * pm
					leafVar[j] += c.LeafVariance(l0)

					pm = c.LeafMean(l1)
					s1[j+1] += pm
					s2[j+1] += pm * pm
					leafVar[j+1] += c.LeafVariance(l1)

					pm = c.LeafMean(l2)
					s1[j+2] += pm
					s2[j+2] += pm * pm
					leafVar[j+2] += c.LeafVariance(l2)

					pm = c.LeafMean(l3)
					s1[j+3] += pm
					s2[j+3] += pm * pm
					leafVar[j+3] += c.LeafVariance(l3)

					pm = c.LeafMean(l4)
					s1[j+4] += pm
					s2[j+4] += pm * pm
					leafVar[j+4] += c.LeafVariance(l4)

					pm = c.LeafMean(l5)
					s1[j+5] += pm
					s2[j+5] += pm * pm
					leafVar[j+5] += c.LeafVariance(l5)

					pm = c.LeafMean(l6)
					s1[j+6] += pm
					s2[j+6] += pm * pm
					leafVar[j+6] += c.LeafVariance(l6)

					pm = c.LeafMean(l7)
					s1[j+7] += pm
					s2[j+7] += pm * pm
					leafVar[j+7] += c.LeafVariance(l7)
				}
				if j < hi {
					l0, l1, l2, l3, l4, l5, l6, l7 := c.Leaf8T(xq[j*d:(j+8)*d], d)
					leaves := [8]int32{l0, l1, l2, l3, l4, l5, l6, l7}
					for k := 0; j+k < hi; k++ {
						l := leaves[k]
						pm := c.LeafMean(l)
						s1[j+k] += pm
						s2[j+k] += pm * pm
						leafVar[j+k] += c.LeafVariance(l)
					}
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		mu[j], sigma[j] = f.finishSums(s1[j], s2[j], leafVar[j])
	}
	scoreScratch.Put(asp)
	qrowPool.Put(rsp)
}
