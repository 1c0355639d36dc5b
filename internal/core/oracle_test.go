package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
)

// The sort-based selection reference. The engine selects by streaming
// the scored pool through the bounded reducers of internal/pool; this
// file keeps the historical materialized form — score every candidate,
// stable-sort, slice — as the oracle those reducers and every
// strategy's SelectStream are checked against.

// Candidates is the materialized view the oracle selects from: the
// remaining pool's feature vectors with the model's beliefs about them.
type Candidates struct {
	X         [][]float64
	Mu, Sigma []float64

	// BestY is the incumbent EI improves upon.
	BestY float64

	Rand *rng.RNG
}

// Len returns the number of candidates.
func (c *Candidates) Len() int { return len(c.Mu) }

// memStream adapts a Candidates view to the PoolStream interface,
// delivering candidates in ordinal order, or in the permutation order
// when it is set.
type memStream struct {
	c     *Candidates
	r     *rng.RNG
	order []int
}

func (m *memStream) Len() int       { return m.c.Len() }
func (m *memStream) BestY() float64 { return m.c.BestY }
func (m *memStream) Rand() *rng.RNG { return m.r }
func (m *memStream) Scan(consume func(ord int, x []float64, mu, sigma float64)) error {
	for k := 0; k < m.c.Len(); k++ {
		i := k
		if m.order != nil {
			i = m.order[k]
		}
		consume(i, m.c.X[i], m.c.Mu[i], m.c.Sigma[i])
	}
	return nil
}

// selectMem runs strat's production selection over a materialized
// candidate set, drawing from c.Rand.
func selectMem(t testing.TB, strat Strategy, c *Candidates, nBatch int) []int {
	t.Helper()
	sel, err := strat.SelectStream(&memStream{c: c, r: c.Rand}, nBatch)
	if err != nil {
		t.Fatalf("%s: SelectStream: %v", strat.Name(), err)
	}
	return sel
}

// clampK bounds a selection size into [0, n].
func clampK(k, n int) int {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	return k
}

// sinkNaNs returns scores with every NaN replaced by sink (−Inf for
// top-k selection, +Inf for bottom-k), copying only when a NaN is
// present: a NaN fed to sort's comparator makes the order undefined.
func sinkNaNs(scores []float64, sink float64) []float64 {
	for i, v := range scores {
		if math.IsNaN(v) {
			cp := make([]float64, len(scores))
			copy(cp, scores)
			for j := i; j < len(cp); j++ {
				if math.IsNaN(cp[j]) {
					cp[j] = sink
				}
			}
			return cp
		}
	}
	return scores
}

// sortedIdx returns the indices of scores in stable descending
// (desc) or ascending order.
func sortedIdx(scores []float64, desc bool) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if desc {
			return scores[idx[a]] > scores[idx[b]]
		}
		return scores[idx[a]] < scores[idx[b]]
	})
	return idx
}

// topKByScore returns the indices of the k largest scores (ties broken
// by lower index; NaN scores rank last). k is clamped into [0, n].
func topKByScore(scores []float64, k int) []int {
	k = clampK(k, len(scores))
	return sortedIdx(sinkNaNs(scores, math.Inf(-1)), true)[:k]
}

// bottomKByScore returns the indices of the k smallest scores; NaN
// scores rank last. k is clamped into [0, n].
func bottomKByScore(scores []float64, k int) []int {
	k = clampK(k, len(scores))
	return sortedIdx(sinkNaNs(scores, math.Inf(1)), false)[:k]
}

// topKDistinctByScore returns the k highest-scoring indices while
// avoiding duplicate feature vectors within the batch; duplicates fill
// the batch only when distinct candidates run out. NaN scores rank last.
func topKDistinctByScore(scores []float64, c *Candidates, k int) []int {
	k = clampK(k, len(scores))
	idx := sortedIdx(sinkNaNs(scores, math.Inf(-1)), true)
	if k <= 1 {
		return idx[:k]
	}
	out := make([]int, 0, k)
	seen := make(map[string]bool, k)
	var dups []int
	for _, i := range idx {
		if len(out) == k {
			return out
		}
		key := pool.VectorKey(c.X[i])
		if seen[key] {
			dups = append(dups, i)
			continue
		}
		seen[key] = true
		out = append(out, i)
	}
	for _, i := range dups {
		if len(out) == k {
			break
		}
		out = append(out, i)
	}
	return out
}

// refSelect is the materialized reference selection of every built-in
// strategy, drawing from c.Rand exactly as the strategy's SelectStream
// draws from its stream's generator.
func refSelect(strat Strategy, c *Candidates, nBatch int) []int {
	nBatch = clampK(nBatch, c.Len())
	scored := func(score func(i int) float64) []float64 {
		out := make([]float64, c.Len())
		for i := range out {
			out[i] = score(i)
		}
		return out
	}
	switch s := strat.(type) {
	case PWU:
		return topKDistinctByScore(scored(func(i int) float64 { return s.Score(c.Mu[i], c.Sigma[i]) }), c, nBatch)
	case CV:
		return refSelect(PWU{Alpha: 0}, c, nBatch)
	case EI:
		return topKDistinctByScore(scored(func(i int) float64 { return s.Score(c.Mu[i], c.Sigma[i], c.BestY) }), c, nBatch)
	case BestPerf:
		return topKDistinctByScore(scored(func(i int) float64 { return -c.Mu[i] }), c, nBatch)
	case MaxU:
		return topKDistinctByScore(c.Sigma, c, nBatch)
	case Random:
		return c.Rand.Sample(c.Len(), nBatch)
	case PBUS:
		cand := bottomKByScore(c.Mu, perfCutoff(c.Len(), nBatch, s.PerfFrac, 0.10))
		scores := scored(func(int) float64 { return math.Inf(-1) })
		for _, i := range cand {
			scores[i] = c.Sigma[i]
		}
		return topKDistinctByScore(scores, c, nBatch)
	case BRS:
		cand := bottomKByScore(c.Mu, perfCutoff(c.Len(), nBatch, s.TopFrac, 0.10))
		pick := c.Rand.Sample(len(cand), nBatch)
		out := make([]int, nBatch)
		for i, j := range pick {
			out[i] = cand[j]
		}
		return out
	}
	panic("refSelect: unknown strategy " + strat.Name())
}
