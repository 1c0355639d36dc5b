package pool

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/space"
)

// sumScorer is a deterministic stand-in for the forest: mu is the sum of
// the features, sigma the sum of squares. Trivially row-identical across
// any batching and safe for concurrent calls.
type sumScorer struct{ calls atomic.Int64 }

func (s *sumScorer) ScoreBatch(X [][]float64, mu, sigma []float64) {
	s.calls.Add(1)
	for i, x := range X {
		var a, b float64
		for _, v := range x {
			a += v
			b += v * v
		}
		mu[i], sigma[i] = a, b
	}
}

type row struct {
	x         []float64
	mu, sigma float64
}

// collect runs a Scan and returns the consumed rows indexed by ordinal.
func collect(t *testing.T, src Source, cfg ScanConfig) map[int]row {
	t.Helper()
	got := map[int]row{}
	err := Scan(src, &sumScorer{}, cfg, func(ord int, x []float64, mu, sigma float64) {
		if _, dup := got[ord]; dup {
			t.Fatalf("ordinal %d delivered twice", ord)
		}
		got[ord] = row{x: append([]float64(nil), x...), mu: mu, sigma: sigma}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func scanTestSource(t *testing.T, n int) Source {
	t.Helper()
	sp := space.MustNew(
		space.Num("tile", 8, 16, 32, 64),
		space.Cat("layout", "DGZ", "DZG", "GDZ"),
		space.Bool("fuse"),
	)
	return NewUniform(sp, 11, n)
}

// TestScanExactlyOnce: every candidate is delivered exactly once with the
// features and scores a serial whole-pool pass would produce.
func TestScanExactlyOnce(t *testing.T) {
	src := scanTestSource(t, 229)
	want := collect(t, src, ScanConfig{Shard: src.Len(), Workers: 1})
	if len(want) != src.Len() {
		t.Fatalf("serial scan delivered %d rows, want %d", len(want), src.Len())
	}
	got := collect(t, src, ScanConfig{Shard: 16, Workers: 4})
	if len(got) != src.Len() {
		t.Fatalf("sharded scan delivered %d rows, want %d", len(got), src.Len())
	}
	for ord, w := range want {
		g := got[ord]
		if g.mu != w.mu || g.sigma != w.sigma {
			t.Fatalf("ordinal %d: sharded (%v, %v), serial (%v, %v)", ord, g.mu, g.sigma, w.mu, w.sigma)
		}
		for j := range w.x {
			if g.x[j] != w.x[j] {
				t.Fatalf("ordinal %d feature %d: sharded %v, serial %v", ord, j, g.x[j], w.x[j])
			}
		}
	}
}

// TestScanShardWorkerInvariance: the reduced selection is bit-identical
// across shard sizes and worker counts — the pool-equivalence property at
// the pool layer — including pools smaller than one shard and a
// one-candidate pool, where the shard and worker caps engage.
func TestScanShardWorkerInvariance(t *testing.T) {
	for _, n := range []int{311, 5, 1} {
		src := scanTestSource(t, n)
		reduce := func(cfg ScanConfig) []int {
			tk := NewTopKDistinct(7)
			if err := Scan(src, &sumScorer{}, cfg, func(ord int, x []float64, mu, sigma float64) {
				tk.Push(ord, sigma/math.Max(mu, 1e-9), x)
			}); err != nil {
				t.Fatal(err)
			}
			return tk.Result()
		}
		want := reduce(ScanConfig{Shard: src.Len(), Workers: 1})
		if len(want) != min(n, 7) {
			t.Fatalf("n=%d: serial scan selected %d candidates", n, len(want))
		}
		for _, shard := range []int{0, 1, 3, 64, 1024} {
			for _, workers := range []int{0, 1, 2, runtime.GOMAXPROCS(0) + 2} {
				got := reduce(ScanConfig{Shard: shard, Workers: workers})
				if !sameInts(got, want) {
					t.Fatalf("n=%d shard=%d workers=%d selected %v, serial selected %v", n, shard, workers, got, want)
				}
			}
		}
	}
}

// TestScanConcurrentScans: scans running at once share the recycled
// shard and worker buffers; over pools of different shapes, so a buffer
// changes size between checkouts, every scan must still deliver exactly
// what it delivers alone, with each row's features matching its scores.
func TestScanConcurrentScans(t *testing.T) {
	wide := space.MustNew(
		space.Num("a", 1, 2, 3), space.Num("b", 1, 2), space.Num("c", 4, 5, 6),
		space.Bool("d"), space.Cat("e", "x", "y"),
	)
	cases := []struct {
		src func() Source
		cfg ScanConfig
	}{
		{func() Source { return scanTestSource(t, 311) }, ScanConfig{Shard: 64, Workers: 2}},
		{func() Source { return scanTestSource(t, 5) }, ScanConfig{}},
		{func() Source { return NewUniform(wide, 5, 700) }, ScanConfig{Shard: 7, Workers: 3}},
	}
	// scan returns each ordinal's mu, or an error when a delivered row's
	// features do not sum to its score (a buffer overwritten mid-scan).
	scan := func(src Source, cfg ScanConfig) ([]float64, error) {
		mus := make([]float64, src.Len())
		var bad error
		err := Scan(src, &sumScorer{}, cfg, func(ord int, x []float64, mu, _ float64) {
			var sum float64
			for _, v := range x {
				sum += v
			}
			if sum != mu && bad == nil {
				bad = fmt.Errorf("ordinal %d: features sum to %v, score %v", ord, sum, mu)
			}
			mus[ord] = mu
		})
		if err == nil {
			err = bad
		}
		return mus, err
	}
	want := make([][]float64, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = scan(c.src(), c.cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cases[g%len(cases)]
			for rep := 0; rep < 5; rep++ {
				got, err := scan(c.src(), c.cfg)
				if err == nil && !slices.Equal(got, want[g%len(cases)]) {
					err = fmt.Errorf("case %d: concurrent scan diverged from the serial one", g%len(cases))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestScanSkipOrdinals: skipped globals are never delivered, and ordinals
// are ranks among the kept candidates — the engine's `remaining` indexing.
func TestScanSkipOrdinals(t *testing.T) {
	src := scanTestSource(t, 100)
	full := collect(t, src, ScanConfig{Shard: 7, Workers: 2})
	skip := []int{0, 13, 14, 15, 63, 99}
	got := collect(t, src, ScanConfig{Shard: 7, Workers: 2, Skip: skip})
	if len(got) != src.Len()-len(skip) {
		t.Fatalf("delivered %d rows, want %d", len(got), src.Len()-len(skip))
	}
	ord := 0
	for g := 0; g < src.Len(); g++ {
		if i := sort.SearchInts(skip, g); i < len(skip) && skip[i] == g {
			continue
		}
		w, k := full[g], got[ord]
		if k.mu != w.mu || k.sigma != w.sigma {
			t.Fatalf("kept ordinal %d (global %d): scores (%v, %v), want (%v, %v)", ord, g, k.mu, k.sigma, w.mu, w.sigma)
		}
		ord++
	}
}

func TestScanValidation(t *testing.T) {
	src := scanTestSource(t, 10)
	sc := &sumScorer{}
	noop := func(int, []float64, float64, float64) {}
	if err := Scan(nil, sc, ScanConfig{}, noop); err == nil {
		t.Fatal("nil source accepted")
	}
	if err := Scan(src, nil, ScanConfig{}, noop); err == nil {
		t.Fatal("nil scorer accepted")
	}
	if err := Scan(src, sc, ScanConfig{}, nil); err == nil {
		t.Fatal("nil consumer accepted")
	}
	if err := Scan(src, sc, ScanConfig{Skip: []int{3, 3}}, noop); err == nil {
		t.Fatal("duplicate skip entries accepted")
	}
	if err := Scan(src, sc, ScanConfig{Skip: []int{5, 2}}, noop); err == nil {
		t.Fatal("unsorted skip accepted")
	}
	if err := Scan(src, sc, ScanConfig{Skip: []int{10}}, noop); err == nil {
		t.Fatal("out-of-range skip accepted")
	}
}

// TestScanMemoryBound: scanning a large pool allocates O(workers × shard),
// not O(pool). The in-memory path would need ~n×d×8 bytes for the feature
// matrix alone; the scan must stay far below that.
func TestScanMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const n, shard, workers = 200_000, 256, 2
	src := scanTestSource(t, n)
	d := src.Space().NumParams()
	sc := &sumScorer{}
	tk := NewTopK(10)
	consume := func(ord int, x []float64, mu, sigma float64) { tk.Push(ord, sigma, nil) }

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Scan(src, sc, ScanConfig{Shard: shard, Workers: workers}, consume); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	poolMatrix := uint64(n * d * 8)
	if alloc > poolMatrix/4 {
		t.Fatalf("scan allocated %d bytes; a materialized pool matrix is %d — streaming should stay well below it", alloc, poolMatrix)
	}
}
