package pool

import (
	"sync/atomic"
	"testing"
)

// fakeSlotScorer is a SlotScorer whose per-slot values depend on the
// slot's generation counter — any cache bug that serves a stale panel or
// skips a due rescore changes the output, and walks counts the per-slot
// per-row work so tests can prove reuse actually happened.
type fakeSlotScorer struct {
	gens  []uint64
	walks atomic.Int64
}

func newFakeSlotScorer(slots int) *fakeSlotScorer {
	return &fakeSlotScorer{gens: make([]uint64, slots)}
}

func (f *fakeSlotScorer) NumSlots() int      { return len(f.gens) }
func (f *fakeSlotScorer) SlotGens() []uint64 { return append([]uint64(nil), f.gens...) }

func (f *fakeSlotScorer) slotVal(t int, x []float64) (m, v float64) {
	s := 0.0
	for _, xv := range x {
		s += xv
	}
	g := float64(f.gens[t])
	return float64(t+1)*s + g, s + 2*g
}

func (f *fakeSlotScorer) ScoreSlots(X [][]float64, slots []int, mean, lvar [][]float64) {
	for _, t := range slots {
		for i, x := range X {
			mean[i][t], lvar[i][t] = f.slotVal(t, x)
			f.walks.Add(1)
		}
	}
}

func (f *fakeSlotScorer) AggregateSlots(mean, lvar [][]float64, mu, sigma []float64) {
	b := len(f.gens)
	for i := range mean {
		var m, s float64
		for t := 0; t < b; t++ {
			m += mean[i][t]
			s += lvar[i][t]
		}
		mu[i], sigma[i] = m/float64(b), s/float64(b)
	}
}

func (f *fakeSlotScorer) ScoreBatch(X [][]float64, mu, sigma []float64) {
	b := len(f.gens)
	mean := make([][]float64, len(X))
	lvar := make([][]float64, len(X))
	for i := range X {
		mean[i] = make([]float64, b)
		lvar[i] = make([]float64, b)
	}
	slots := make([]int, b)
	for t := range slots {
		slots[t] = t
	}
	f.ScoreSlots(X, slots, mean, lvar)
	f.AggregateSlots(mean, lvar, mu, sigma)
}

// collectWith runs a Scan with the given scorer and returns rows by ordinal.
func collectWith(t *testing.T, src Source, sc BatchScorer, cfg ScanConfig) map[int]row {
	t.Helper()
	got := map[int]row{}
	err := Scan(src, sc, cfg, func(ord int, x []float64, mu, sigma float64) {
		got[ord] = row{x: append([]float64(nil), x...), mu: mu, sigma: sigma}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameRows(t *testing.T, label string, got, want map[int]row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for ord, w := range want {
		g, ok := got[ord]
		if !ok {
			t.Fatalf("%s: ordinal %d missing", label, ord)
		}
		if g.mu != w.mu || g.sigma != w.sigma {
			t.Fatalf("%s: ordinal %d got (%v, %v), want (%v, %v)", label, ord, g.mu, g.sigma, w.mu, w.sigma)
		}
	}
}

// TestScanCacheBitIdentical: across a cold scan, a warm scan after a
// partial "update" (two slots' generations bumped) and a budget that
// covers only part of the pool, cached scans must reproduce uncached
// scans bit for bit — while doing measurably less slot walking.
func TestScanCacheBitIdentical(t *testing.T) {
	const n, slots = 600, 8
	src := scanTestSource(t, n)
	// Cover roughly half the pool: rows*slots*16 bytes.
	cache := NewScanCache(int64(n/2) * slots * 16)
	sc := newFakeSlotScorer(slots)
	cfg := ScanConfig{Shard: 64, Workers: 3}
	ccfg := cfg
	ccfg.Cache = cache

	want := collectWith(t, src, sc, cfg)
	got := collectWith(t, src, sc, ccfg)
	sameRows(t, "cold scan", got, want)
	st := cache.Stats()
	if st.Resets != 1 || st.Scans != 1 || st.StaleSlots != slots {
		t.Fatalf("cold scan stats: %+v", st)
	}
	if st.CachedRows <= 0 || st.CachedRows >= n {
		t.Fatalf("expected a partial covered prefix, got %d of %d", st.CachedRows, n)
	}

	// Partial update: two slots change generation.
	sc.gens[1]++
	sc.gens[3]++
	want = collectWith(t, src, sc, cfg)
	sc.walks.Store(0)
	got = collectWith(t, src, sc, ccfg)
	sameRows(t, "warm scan", got, want)
	st = cache.Stats()
	if st.StaleSlots != 2 || st.Scans != 2 || st.Resets != 1 {
		t.Fatalf("warm scan stats: %+v", st)
	}
	// Covered rows re-walk 2 slots, uncovered rows all 8.
	wantWalks := int64(st.CachedRows*2 + (n-st.CachedRows)*slots)
	if w := sc.walks.Load(); w != wantWalks {
		t.Fatalf("warm cached scan did %d slot walks, want %d", w, wantWalks)
	}

	// No update: covered rows re-aggregate without any walking.
	sc.walks.Store(0)
	got = collectWith(t, src, sc, ccfg)
	sameRows(t, "no-op scan", got, want)
	if w, cr := sc.walks.Load(), cache.Stats().CachedRows; w != int64((n-cr)*slots) {
		t.Fatalf("unchanged-model scan did %d slot walks, want %d", w, (n-cr)*slots)
	}
}

// TestScanCacheSkipAndIdentity: the cache composes with Skip, and a new
// scorer identity (a freshly fitted model whose generations restart)
// forces a cold restart instead of serving the old model's panels.
func TestScanCacheSkipAndIdentity(t *testing.T) {
	const n, slots = 300, 4
	src := scanTestSource(t, n)
	cache := NewScanCache(0) // default budget covers everything here
	sc := newFakeSlotScorer(slots)
	skip := []int{0, 17, 42, 118, 299}
	cfg := ScanConfig{Shard: 32, Skip: skip}
	ccfg := cfg
	ccfg.Cache = cache

	want := collectWith(t, src, sc, cfg)
	sameRows(t, "skip scan", collectWith(t, src, sc, ccfg), want)
	sameRows(t, "skip rescan", collectWith(t, src, sc, ccfg), want)

	// Fresh scorer, same shape, generations back at zero: identical gens
	// must NOT be mistaken for "nothing changed".
	sc2 := newFakeSlotScorer(slots)
	sc2.gens[2] = 0 // same gens as a fresh sc — only identity distinguishes them
	want2 := collectWith(t, src, sc2, cfg)
	sameRows(t, "fresh scorer", collectWith(t, src, sc2, ccfg), want2)
	if st := cache.Stats(); st.Resets != 2 {
		t.Fatalf("expected a cache reset on scorer change, stats %+v", st)
	}
}

// TestScanCacheRequiresSlotScorer: a cache with a plain BatchScorer is a
// configuration error, not a silent fallback.
func TestScanCacheRequiresSlotScorer(t *testing.T) {
	src := scanTestSource(t, 50)
	err := Scan(src, &sumScorer{}, ScanConfig{Cache: NewScanCache(0)}, func(int, []float64, float64, float64) {})
	if err == nil {
		t.Fatal("expected an error for Cache without a SlotScorer")
	}
}

// lyingLen wraps a source and inflates Len, making the scan fail after
// the source runs dry.
type lyingLen struct{ Source }

func (l lyingLen) Len() int { return l.Source.Len() + 10 }

// TestScanCacheAbortedScanNotCommitted: a failed scan must not commit its
// generation snapshot — the next successful scan re-walks the stale slots
// and still produces exact results.
func TestScanCacheAbortedScanNotCommitted(t *testing.T) {
	const n, slots = 200, 4
	src := scanTestSource(t, n)
	cache := NewScanCache(0)
	sc := newFakeSlotScorer(slots)
	ccfg := ScanConfig{Shard: 32, Cache: cache}

	collectWith(t, src, sc, ccfg)
	sc.gens[0]++
	if err := Scan(lyingLen{src}, sc, ccfg, func(int, []float64, float64, float64) {}); err == nil {
		t.Fatal("expected the lying source to fail the scan")
	}
	if st := cache.Stats(); st.Scans != 1 {
		t.Fatalf("aborted scan committed: %+v", st)
	}
	want := collectWith(t, src, sc, ScanConfig{Shard: 32})
	sameRows(t, "post-abort scan", collectWith(t, src, sc, ccfg), want)
}
