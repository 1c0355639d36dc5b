package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// streamScorer adapts a Model without a native ScoreBatch to the pool
// scorer contract. The Model interface makes no concurrency promise, so
// calls are serialized; forests bypass this adapter (Forest.ScoreBatch is
// lock-free and concurrent-safe).
type streamScorer struct {
	mu sync.Mutex
	m  Model
}

// ScoreBatch implements pool.BatchScorer.
func (s *streamScorer) ScoreBatch(X [][]float64, mu, sigma []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pm, ps := s.m.PredictBatch(X)
	copy(mu, pm)
	copy(sigma, ps)
}

// batchScorer returns the current model as a pool scorer.
func (s *Session) batchScorer() pool.BatchScorer {
	if bs, ok := s.model.(pool.BatchScorer); ok {
		return bs
	}
	return &streamScorer{m: s.model}
}

// poolStream is the session's PoolStream view: the source minus the
// taken set, scored by the current model. ctx is the Ask's context; a
// scan stops at the next shard boundary once it is done.
type poolStream struct {
	ctx   context.Context
	s     *Session
	bestY float64
}

// Len implements PoolStream.
func (ps *poolStream) Len() int { return ps.s.src.Len() - len(ps.s.taken) }

// BestY implements PoolStream.
func (ps *poolStream) BestY() float64 { return ps.bestY }

// Rand implements PoolStream.
func (ps *poolStream) Rand() *rng.RNG { return ps.s.r }

// Scan implements PoolStream.
func (ps *poolStream) Scan(consume func(ord int, x []float64, mu, sigma float64)) error {
	sc := ps.s.batchScorer()
	cfg := pool.ScanConfig{
		Shard: ps.s.p.StreamShard,
		Skip:  ps.s.taken,
	}
	// The cross-scan cache needs the per-slot scoring contract; the
	// serialized fallback scorer for plain Models doesn't have it.
	if _, ok := sc.(pool.SlotScorer); ok {
		cfg.Cache = ps.s.cache
	}
	return pool.Scan(ps.ctx, ps.s.src, sc, cfg, consume)
}

// markTaken inserts global index g into the sorted taken set.
func (s *Session) markTaken(g int) {
	i := sort.SearchInts(s.taken, g)
	s.taken = append(s.taken, 0)
	copy(s.taken[i+1:], s.taken[i:])
	s.taken[i] = g
}

// ordToGlobal maps a candidate ordinal — its rank among non-taken
// candidates in source order, the index space strategies select in — to
// the candidate's global source index.
func (s *Session) ordToGlobal(ord int) int {
	g := ord
	for _, t := range s.taken {
		if t <= g {
			g++
		} else {
			break
		}
	}
	return g
}

// fetchConfigs materializes the configurations at the given global source
// indices (which may repeat or arrive in any order): directly for
// random-access sources, otherwise with one generation-only pass over the
// stream — cheap, since nothing is encoded or scored.
func (s *Session) fetchConfigs(globals []int) ([]space.Config, error) {
	d := s.sp.NumParams()
	out := make([]space.Config, len(globals))
	if ra, ok := s.src.(pool.RandomAccess); ok {
		for i, g := range globals {
			c := make(space.Config, d)
			ra.At(g, c)
			out[i] = c
		}
		return out, nil
	}
	order := make([]int, len(globals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return globals[order[a]] < globals[order[b]] })
	shard := s.p.StreamShard
	if shard <= 0 {
		shard = 1024
	}
	buf := make([]space.Config, shard)
	flat := make([]int, shard*d)
	for i := range buf {
		buf[i] = space.Config(flat[i*d : (i+1)*d : (i+1)*d])
	}
	s.src.Reset()
	base, w := 0, 0
	for w < len(order) {
		n := s.src.Next(buf)
		if n == 0 {
			return nil, fmt.Errorf("core: source ended at %d candidates before index %d", base, globals[order[w]])
		}
		for w < len(order) && globals[order[w]] < base+n {
			out[order[w]] = buf[globals[order[w]]-base].Clone()
			w++
		}
		base += n
	}
	return out, nil
}
