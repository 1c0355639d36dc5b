package pool

import "sync"

// Cross-scan score reuse. A streaming campaign re-scores the whole pool
// every iteration, but between warm-update iterations only a fraction of
// the ensemble's trees change (forest.Update bumps the generation
// counters of the slots it refreshes). ScanCache keeps per-candidate,
// per-slot leaf-statistic panels alive across Scans, so a candidate
// scored in a previous iteration re-walks only the trees that actually
// changed; the untouched slots' contributions are re-aggregated from the
// cached panels — bit-identically, because the SlotScorer contract makes
// AggregateSlots over full panels reproduce ScoreBatch exactly.

// SlotScorer is a BatchScorer whose score decomposes over generation-
// counted slots (ensemble members) — the contract the cross-scan cache
// needs to reuse per-slot work. *forest.Forest implements it.
//
// Required invariants, pinned by the forest tests:
//
//   - SlotGens()[t] changes exactly when slot t's predictions may have
//     changed.
//   - ScoreSlots fills panel columns for the requested slots only, and
//     is safe for concurrent calls on disjoint panel rows.
//   - AggregateSlots over panels filled for *all* slots is bit-identical
//     to ScoreBatch on the same rows.
//   - Implementations are comparable pointers, and the cache keys its
//     panels by the SlotScorer value itself: a warm-updated model is
//     the same pointer (slot generations record what changed), while a
//     freshly fitted model — whose generation counters restart — is a
//     new one, forcing a cold start.
type SlotScorer interface {
	BatchScorer
	NumSlots() int
	SlotGens() []uint64
	ScoreSlots(X [][]float64, slots []int, mean, lvar [][]float64)
	AggregateSlots(mean, lvar [][]float64, mu, sigma []float64)
}

// CacheStats counts what a ScanCache did, for tests and telemetry.
type CacheStats struct {
	// Scans is the number of committed (fully completed) scans.
	Scans int

	// Resets counts cold restarts: first use, a different scorer, or a
	// pool/ensemble shape change.
	Resets int

	// StaleSlots is the number of slots re-walked for cached rows on
	// the most recent scan (all of them after a reset).
	StaleSlots int

	// CachedRows is the covered prefix length of the most recent scan:
	// candidates at global index < CachedRows hit the panel path.
	CachedRows int
}

// ScanCache holds score panels across Scans. One cache serves one
// scorer at a time (a different SlotScorer resets it); pass
// it to successive Scans through ScanConfig.Cache. Not safe for use by
// concurrent Scans — the streaming engine runs one scan at a time.
//
// Memory is bounded by the byte budget: panels cover the prefix
// [0, rows) of global candidate indices with rows chosen so that
// rows × slots × 16 bytes stays within budget. Candidates beyond the
// prefix are scored from scratch every scan, so a small budget degrades
// throughput, never correctness.
type ScanCache struct {
	budget int64

	mu    sync.Mutex
	sc    SlotScorer // scorer the panels belong to; nil until first scan
	gens  []uint64   // committed generation snapshot; nil until first commit
	rows  int
	slots int
	mean  [][]float64
	lvar  [][]float64
	stats CacheStats
}

// NewScanCache returns a cache bounded by budgetBytes of panel storage
// (<= 0 means 256 MiB).
func NewScanCache(budgetBytes int64) *ScanCache {
	if budgetBytes <= 0 {
		budgetBytes = 256 << 20
	}
	return &ScanCache{budget: budgetBytes}
}

// Stats returns a snapshot of the cache's counters.
func (c *ScanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// scanPlan is one Scan's view of the cache: the covered prefix, the
// slots to re-walk for covered rows, and the generation snapshot to
// commit if the scan completes.
type scanPlan struct {
	cache *ScanCache
	sc    SlotScorer
	rows  int   // cached prefix: globals < rows take the panel path
	stale []int // slots to rescore for cached rows (ascending)
	gens  []uint64
}

// begin prepares the cache for a scan over poolLen candidates scored by
// sc, resetting it when the scorer or the panel shape changed.
func (c *ScanCache) begin(sc SlotScorer, poolLen int) *scanPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := sc.NumSlots()
	rows := poolLen
	if perRow := int64(slots) * 16; perRow > 0 && int64(rows)*perRow > c.budget {
		rows = int(c.budget / perRow)
	}
	if sc != c.sc || slots != c.slots || rows != c.rows {
		c.sc, c.slots, c.rows = sc, slots, rows
		c.gens = nil
		flat := make([]float64, 2*rows*slots)
		c.mean = make([][]float64, rows)
		c.lvar = make([][]float64, rows)
		for i := 0; i < rows; i++ {
			c.mean[i] = flat[i*slots : (i+1)*slots]
			c.lvar[i] = flat[(rows+i)*slots : (rows+i+1)*slots]
		}
		c.stats.Resets++
	}
	gens := sc.SlotGens()
	var stale []int
	if c.gens == nil {
		stale = make([]int, slots)
		for t := range stale {
			stale[t] = t
		}
	} else {
		for t := range gens {
			if gens[t] != c.gens[t] {
				stale = append(stale, t)
			}
		}
	}
	c.stats.StaleSlots = len(stale)
	c.stats.CachedRows = rows
	return &scanPlan{cache: c, sc: sc, rows: rows, stale: stale, gens: gens}
}

// commit records the scan's generation snapshot after every covered row
// had its stale slots re-walked. An aborted scan never commits: its
// partial panel writes are harmless (the stale slots stay stale against
// the last committed snapshot and are re-walked in full next scan).
func (p *scanPlan) commit() {
	c := p.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens = p.gens
	c.stats.Scans++
}
