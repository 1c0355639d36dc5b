package pool

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/space"
)

// BatchScorer scores a batch of encoded feature rows into the provided
// mu/sigma buffers (len(mu) == len(sigma) == len(X)).
//
// Implementations must be safe for concurrent calls and must produce, for
// every row, exactly the values a whole-pool PredictBatch would produce
// for that row — forest.Forest satisfies both (its per-row Welford
// accumulation runs in ascending tree order regardless of batching).
type BatchScorer interface {
	ScoreBatch(X [][]float64, mu, sigma []float64)
}

// ScanConfig tunes a Scan. The zero value is valid: 1024-candidate shards
// on GOMAXPROCS workers with nothing skipped. Shard size and worker count
// are performance knobs only — by construction they cannot change what
// any order-independent consumer (the TopK reducers) computes, and the
// pool-equivalence gate pins that.
type ScanConfig struct {
	// Shard is the number of candidates generated, encoded and scored as
	// one unit; <= 0 defaults to 1024. It is capped at the pool size, so
	// a small pool never allocates buffers it cannot fill.
	Shard int

	// Workers is the number of concurrent scoring workers; <= 0 defaults
	// to GOMAXPROCS. It is capped at the number of shards, since a worker
	// without a shard to score would only hold idle buffers.
	Workers int

	// Skip lists global candidate indices to omit (ascending, unique) —
	// the engine's already-labeled configurations. Ordinals passed to the
	// consumer are ranks among the non-skipped candidates, the index
	// space strategies select in.
	Skip []int

	// Cache, when non-nil, reuses per-slot score panels across scans
	// (see ScanCache): candidates inside the cache's covered prefix
	// re-walk only the ensemble slots whose generation changed since
	// the last completed scan. Requires a scorer implementing
	// SlotScorer; results are bit-identical to a cache-less scan by the
	// SlotScorer contract.
	Cache *ScanCache
}

// shardBuf carries one shard of generated configurations from the driver
// to a worker. Buffers are recycled through a free list, so a scan holds
// at most workers+1 of them regardless of pool size.
type shardBuf struct {
	configs []space.Config
	flat    []int // backing store of configs
	base    int   // global index of configs[0]
	n       int   // filled count
}

// workerBuf is one worker's encode/score scratch for a shard.
type workerBuf struct {
	flat          []float64 // backing store of rows
	rows          [][]float64
	ords, globals []int
	mus, sigmas   []float64
	mrows, vrows  [][]float64 // cached-panel rows (cache plans only)
}

// shardBufs and workerBufs recycle scan buffers across Scans: the engine
// rescans the same pool every iteration, and small pools would otherwise
// spend as much on allocating shard buffers as on scoring them.
var (
	shardBufs  = sync.Pool{New: func() interface{} { return new(shardBuf) }}
	workerBufs = sync.Pool{New: func() interface{} { return new(workerBuf) }}
)

// grow returns s resliced to n, reallocating only when its capacity is
// short. Contents are not preserved; every user overwrites them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getShardBuf checks out a shard buffer of shard configs of d levels.
func getShardBuf(shard, d int) *shardBuf {
	b := shardBufs.Get().(*shardBuf)
	b.flat = grow(b.flat, shard*d)
	b.configs = grow(b.configs, shard)
	for i := range b.configs {
		b.configs[i] = space.Config(b.flat[i*d : (i+1)*d : (i+1)*d])
	}
	return b
}

// getWorkerBuf checks out a worker scratch for shard rows of d features.
func getWorkerBuf(shard, d int, cached bool) *workerBuf {
	w := workerBufs.Get().(*workerBuf)
	w.flat = grow(w.flat, shard*d)
	w.rows = grow(w.rows, shard)
	for i := range w.rows {
		w.rows[i] = w.flat[i*d : (i+1)*d : (i+1)*d]
	}
	w.ords, w.globals = grow(w.ords, shard), grow(w.globals, shard)
	w.mus, w.sigmas = grow(w.mus, shard), grow(w.sigmas, shard)
	if cached {
		w.mrows, w.vrows = grow(w.mrows, shard), grow(w.vrows, shard)
	}
	return w
}

// Scan streams every candidate of src through the scorer and hands each
// non-skipped candidate to consume exactly once.
//
// The driver goroutine reads shards from the source (sources are
// sequential); workers encode each shard into a reusable matrix, score it,
// and deliver (ordinal, features, mu, sigma) under an internal lock.
// Delivery order across shards is unspecified — consumers must be
// order-independent, which the TopK reducers are by construction — but
// ordinals, features and scores are deterministic, so any such consumer's
// result is invariant across shard sizes and worker counts.
//
// The x slice handed to consume is only valid during the call.
//
// Peak memory is O(Workers × Shard × NumParams): workers+1 config shards
// plus one encode/score scratch per worker. The pool itself is never
// materialized.
func Scan(src Source, sc BatchScorer, cfg ScanConfig, consume func(ord int, x []float64, mu, sigma float64)) error {
	if src == nil || sc == nil || consume == nil {
		return fmt.Errorf("pool: Scan needs a source, a scorer and a consumer")
	}
	sp := src.Space()
	d := sp.NumParams()
	shard := cfg.Shard
	if shard <= 0 {
		shard = 1024
	}
	if n := src.Len(); shard > n {
		shard = max(n, 1)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards := (src.Len() + shard - 1) / shard; workers > shards {
		workers = max(shards, 1)
	}
	skip := cfg.Skip
	for i := 1; i < len(skip); i++ {
		if skip[i] <= skip[i-1] {
			return fmt.Errorf("pool: ScanConfig.Skip not sorted ascending and unique at %d", i)
		}
	}
	if len(skip) > 0 && (skip[0] < 0 || skip[len(skip)-1] >= src.Len()) {
		return fmt.Errorf("pool: ScanConfig.Skip index out of range [0, %d)", src.Len())
	}
	var plan *scanPlan
	if cfg.Cache != nil {
		ss, ok := sc.(SlotScorer)
		if !ok {
			return fmt.Errorf("pool: ScanConfig.Cache requires a SlotScorer, got %T", sc)
		}
		plan = cfg.Cache.begin(ss, src.Len())
	}

	free := make(chan *shardBuf, workers+1)
	for i := 0; i < workers+1; i++ {
		free <- getShardBuf(shard, d)
	}
	tasks := make(chan *shardBuf)

	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wb := getWorkerBuf(shard, d, plan != nil)
			defer func() {
				// Drop references into the cache's panels before pooling.
				clear(wb.mrows)
				clear(wb.vrows)
				workerBufs.Put(wb)
			}()
			rows, ords, globals, mus, sigmas := wb.rows, wb.ords, wb.globals, wb.mus, wb.sigmas
			for buf := range tasks {
				// si indexes the first skip entry not yet passed; for a
				// kept global g, si equals the count of skipped globals
				// below g, so g-si is its rank among kept candidates.
				si := sort.SearchInts(skip, buf.base)
				kept := 0
				for i := 0; i < buf.n; i++ {
					g := buf.base + i
					if si < len(skip) && skip[si] == g {
						si++
						continue
					}
					sp.EncodeInto(buf.configs[i], rows[kept])
					ords[kept] = g - si
					globals[kept] = g
					kept++
				}
				if kept > 0 {
					scoreShard(sc, plan, globals[:kept], rows[:kept], mus[:kept], sigmas[:kept], wb.mrows, wb.vrows)
					mu.Lock()
					for j := 0; j < kept; j++ {
						consume(ords[j], rows[j], mus[j], sigmas[j])
					}
					mu.Unlock()
				}
				free <- buf
			}
		}()
	}

	src.Reset()
	global := 0
	for {
		buf := <-free
		n := src.Next(buf.configs)
		if n == 0 {
			free <- buf
			break
		}
		buf.base, buf.n = global, n
		global += n
		tasks <- buf
	}
	close(tasks)
	wg.Wait()
	for i := 0; i < workers+1; i++ {
		shardBufs.Put(<-free)
	}
	if global != src.Len() {
		return fmt.Errorf("pool: source produced %d candidates, Len() promised %d", global, src.Len())
	}
	if plan != nil {
		plan.commit()
	}
	return nil
}

// scoreShard scores one shard's kept rows into mus/sigmas, routing rows
// inside the cache plan's covered prefix through the panel path:
// re-walk only the stale slots, re-aggregate the rest from the cached
// panels. Globals ascend within a shard, so the covered rows form a
// prefix of the kept rows; each global row belongs to exactly one shard,
// so concurrent workers write disjoint panel rows.
func scoreShard(sc BatchScorer, plan *scanPlan, globals []int, rows [][]float64, mus, sigmas []float64, mrows, vrows [][]float64) {
	ck := 0
	if plan != nil {
		for ck < len(globals) && globals[ck] < plan.rows {
			ck++
		}
	}
	if ck > 0 {
		for j := 0; j < ck; j++ {
			mrows[j] = plan.cache.mean[globals[j]]
			vrows[j] = plan.cache.lvar[globals[j]]
		}
		if len(plan.stale) > 0 {
			plan.sc.ScoreSlots(rows[:ck], plan.stale, mrows[:ck], vrows[:ck])
		}
		plan.sc.AggregateSlots(mrows[:ck], vrows[:ck], mus[:ck], sigmas[:ck])
	}
	if len(rows) > ck {
		sc.ScoreBatch(rows[ck:], mus[ck:], sigmas[ck:])
	}
}
