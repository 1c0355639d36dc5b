package pool

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/space"
	"repro/internal/tree"
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

// KeyedScorer is a BatchScorer that also takes rows already keyed:
// tree.Key values in 8-row feature-major groups, the key of feature f of
// row j at xk[(j/8)*8*d + f*8 + j%8] — the layout the forest's 8-lane
// walk reads. Scan keys every candidate straight from its level indices
// through per-parameter tables and hands the groups to ScoreKeyed,
// instead of encoding float rows that ScoreBatch would key again.
// *forest.Forest implements it.
type KeyedScorer interface {
	BatchScorer

	// ScoreKeyed scores n = len(mu) keyed rows exactly as ScoreBatch
	// scores the float rows the keys encode. xk holds ceil(n/8) groups;
	// the lanes past n in the last group are scratch the scorer may
	// overwrite.
	ScoreKeyed(xk []uint64, mu, sigma []float64)
}

// level is one parameter level's model feature value and walk key.
type level struct {
	val float64
	key uint64
}

// levelTables maps every parameter's level indices to their feature
// value (space.Value) and its tree.Key. Both depend only on the
// parameter and the level, so a candidate is encoded and keyed by
// table lookups alone.
func levelTables(sp *space.Space) [][]level {
	tabs := make([][]level, sp.NumParams())
	c := make(space.Config, sp.NumParams())
	for f := range tabs {
		tabs[f] = make([]level, sp.Param(f).NumLevels())
		for l := range tabs[f] {
			c[f] = l
			v := sp.Value(c, f)
			tabs[f][l] = level{val: v, key: tree.Key(v)}
		}
	}
	return tabs
}

// encodeRow writes candidate c's feature row and, when kx is non-nil,
// its keys at stride 8 (kx[f*8], one lane of a keyed group). A level
// outside its table — only a hand-built Slice can hold one — takes
// space.Value's own path, so it encodes (or panics) exactly as before.
func encodeRow(sp *space.Space, tabs [][]level, c space.Config, row []float64, kx []uint64) {
	for f, lvl := range c {
		var e level
		if t := tabs[f]; uint(lvl) < uint(len(t)) {
			e = t[lvl]
		} else {
			v := sp.Value(c, f)
			e = level{val: v, key: tree.Key(v)}
		}
		row[f] = e.val
		if kx != nil {
			kx[f*8] = e.key
		}
	}
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
	keys          []uint64 // keyed 8-row groups (keyed scorers only)
	ords, globals []int
	mus, sigmas   []float64
	lrows         [][]int32 // cached leaf-id panel rows (cache plans only)
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
// Keyed scratch holds two extra groups: a shard's cache-covered rows and
// the rest are keyed as two runs that each start on a group boundary.
func getWorkerBuf(shard, d int, keyed, cached bool) *workerBuf {
	w := workerBufs.Get().(*workerBuf)
	w.flat = grow(w.flat, shard*d)
	w.rows = grow(w.rows, shard)
	for i := range w.rows {
		w.rows[i] = w.flat[i*d : (i+1)*d : (i+1)*d]
	}
	if keyed {
		w.keys = grow(w.keys, (shard/8+2)*8*d)
	}
	w.ords, w.globals = grow(w.ords, shard), grow(w.globals, shard)
	w.mus, w.sigmas = grow(w.mus, shard), grow(w.sigmas, shard)
	if cached {
		w.lrows = grow(w.lrows, shard)
	}
	return w
}

// Scan streams every candidate of src through the scorer and hands each
// non-skipped candidate to consume exactly once.
//
// The driver goroutine reads shards from the source (sources are
// sequential); workers encode each shard through per-parameter level
// tables into a reusable matrix — and, for a KeyedScorer, straight into
// keyed row groups — score it, and deliver (ordinal, features, mu,
// sigma) under an internal lock. Delivery order across shards is
// unspecified — consumers must be order-independent, which the TopK
// reducers are by construction — but ordinals, features and scores are
// deterministic, so any such consumer's result is invariant across shard
// sizes and worker counts.
//
// The x slice handed to consume is only valid during the call.
//
// ctx is checked before each shard is read: once it is done, Scan stops
// feeding shards, waits for the shards in flight and returns an error
// wrapping ctx.Err(). A cancelled scan may already have delivered some
// candidates, and it never commits the cache plan.
//
// Peak memory is O(Workers × Shard × NumParams): workers+1 config shards
// plus one encode/score scratch per worker. The pool itself is never
// materialized.
func Scan(ctx context.Context, src Source, sc BatchScorer, cfg ScanConfig, consume func(ord int, x []float64, mu, sigma float64)) error {
	if ctx == nil || src == nil || sc == nil || consume == nil {
		return fmt.Errorf("pool: Scan needs a context, a source, a scorer and a consumer")
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
	ks, _ := sc.(KeyedScorer)
	tabs := levelTables(sp)

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
			wb := getWorkerBuf(shard, d, ks != nil, plan != nil)
			defer func() {
				// Drop references into the cache's panels before pooling.
				clear(wb.lrows)
				workerBufs.Put(wb)
			}()
			rows, ords, globals, mus, sigmas := wb.rows, wb.ords, wb.globals, wb.mus, wb.sigmas
			for buf := range tasks {
				// Candidates below split are covered by the cache plan.
				// Their keys fill groups from row 0; the uncovered rest
				// start at row ukey, the next group boundary, so each
				// run is whole groups from lane 0.
				split := 0
				if plan != nil {
					split = min(max(plan.rows-buf.base, 0), buf.n)
				}
				ukey := (split + 7) / 8 * 8
				// si indexes the first skip entry not yet passed; for a
				// kept global g, si equals the count of skipped globals
				// below g, so g-si is its rank among kept candidates.
				si := sort.SearchInts(skip, buf.base)
				kept, ck := 0, 0
				for i := 0; i < buf.n; i++ {
					g := buf.base + i
					if si < len(skip) && skip[si] == g {
						si++
						continue
					}
					var kx []uint64
					if ks != nil {
						p := kept
						if i >= split {
							p = ukey + kept - ck
						}
						kx = wb.keys[p/8*8*d+p%8:]
					}
					encodeRow(sp, tabs, buf.configs[i], rows[kept], kx)
					if i < split {
						ck++
					}
					ords[kept] = g - si
					globals[kept] = g
					kept++
				}
				if kept > 0 {
					scoreShard(sc, ks, plan, ck, globals[:kept], rows[:kept], wb.keys, ukey*d, mus[:kept], sigmas[:kept], wb.lrows)
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
	var cancelled error
	for {
		if cancelled = ctx.Err(); cancelled != nil {
			break
		}
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
	if cancelled != nil {
		return fmt.Errorf("pool: scan stopped after %d of %d candidates: %w", global, src.Len(), cancelled)
	}
	if global != src.Len() {
		return fmt.Errorf("pool: source produced %d candidates, Len() promised %d", global, src.Len())
	}
	if plan != nil {
		plan.commit()
	}
	return nil
}

// scoreShard scores one shard's kept rows into mus/sigmas. The first ck
// rows are inside the cache plan's covered prefix (globals ascend within
// a shard, so covered rows come first) and take the panel path: re-walk
// only the stale slots, re-aggregate the rest from the cached panels.
// Each global row belongs to exactly one shard, so concurrent workers
// write disjoint panel rows. A keyed scorer reads the covered rows' keys
// from keys[0:] and the rest from keys[ukey:]; any other scorer scores
// the float rows.
func scoreShard(sc BatchScorer, ks KeyedScorer, plan *scanPlan, ck int, globals []int, rows [][]float64, keys []uint64, ukey int, mus, sigmas []float64, lrows [][]int32) {
	if ck > 0 {
		for j := 0; j < ck; j++ {
			lrows[j] = plan.cache.leaves[globals[j]]
		}
		if len(plan.stale) > 0 {
			plan.sc.ScoreSlots(keys, plan.stale, lrows[:ck])
		}
		plan.sc.AggregateSlots(lrows[:ck], mus[:ck], sigmas[:ck])
	}
	if len(rows) > ck {
		if ks != nil {
			ks.ScoreKeyed(keys[ukey:], mus[ck:], sigmas[ck:])
		} else {
			sc.ScoreBatch(rows[ck:], mus[ck:], sigmas[ck:])
		}
	}
}
