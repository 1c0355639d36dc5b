package forest

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// levelKeyedSpaces are the parameter shapes the level-keyed scan must
// encode and key exactly as the float rows: numeric levels that are
// negative, zero (of both signs), tiny and huge, booleans, categoricals,
// and single-level parameters of each kind.
func levelKeyedSpaces() map[string]*space.Space {
	negZero := math.Copysign(0, -1)
	return map[string]*space.Space{
		"numeric extremes": space.MustNew(
			space.Num("wide", -math.MaxFloat64, -1e300, -2.5, 0, 1e-300, 7, 1e300, math.MaxFloat64),
			space.Num("negzero", -3, negZero, 4),
			space.Num("neg", -64, -32, -16, -8),
			space.NumRange("big", 1<<40, 1<<40+9, 1),
		),
		"mixed kinds": space.MustNew(
			space.Num("tile", -4, 0, 16, 1024),
			space.Bool("fuse"),
			space.Cat("layout", "DGZ", "DZG", "GDZ", "GZD", "ZDG"),
			space.Bool("vec"),
			space.Cat("sched", "static", "dynamic"),
		),
		"single levels": space.MustNew(
			space.Num("one", -5),
			space.Cat("solo", "only"),
			space.Num("zero", 0),
			space.NumRange("u", 1, 8, 1),
			space.Cat("k", "a", "b", "c"),
		),
	}
}

// levelKeyedObjective is a response over every parameter's value, with
// the huge levels squashed so the labels stay finite.
func levelKeyedObjective(sp *space.Space, c space.Config) float64 {
	y := 1.0
	for f := 0; f < sp.NumParams(); f++ {
		v := sp.Value(c, f)
		y += float64(f+1) * math.Atan(v/8) * float64(c[f]%3+1)
	}
	return y
}

// TestLevelKeyedScanBitIdentical is the level-keyed scan's bit-identity
// gate: for every candidate, the (ord, x, μ, σ) a scan delivers — keys
// and rows built from level indices through the per-parameter tables —
// must equal the float-row path (Space.Encode, then PredictBatch's
// ScoreBatch, which keys the float rows) and the scalar
// PredictWithUncertainty, bit for bit. It runs with and without a
// ScanCache (a full one, and a starved one whose covered prefix ends
// inside a shard), across a warm Update, over shard sizes that leave
// ragged groups, and with labeled candidates skipped.
func TestLevelKeyedScanBitIdentical(t *testing.T) {
	for name, sp := range levelKeyedSpaces() {
		t.Run(name, func(t *testing.T) {
			train := sp.SampleConfigs(rng.New(3), 160)
			y := make([]float64, len(train))
			for i, c := range train {
				y[i] = levelKeyedObjective(sp, c)
			}
			f, err := Fit(sp.EncodeAll(train), y, sp.Features(), Config{NumTrees: 24, Uncertainty: TotalVariance}, rng.New(4))
			if err != nil {
				t.Fatal(err)
			}
			const n = 700
			src := pool.NewUniform(sp, 5, n)
			skip := []int{0, 1, 9, 64, 65, 300, 699}
			caches := map[string]func() *pool.ScanCache{
				"no cache":      func() *pool.ScanCache { return nil },
				"full cache":    func() *pool.ScanCache { return pool.NewScanCache(0) },
				"starved cache": func() *pool.ScanCache { return pool.NewScanCache(int64(n/3) * 24 * 16) },
			}
			for cname, mk := range caches {
				cache := mk()
				for round := 0; round < 3; round++ {
					if round == 2 {
						X, yy := sp.EncodeAll(train[:120]), y[:120]
						if err := f.Update(X, yy, rng.New(6)); err != nil {
							t.Fatal(err)
						}
					}
					for _, shard := range []int{1, 7, 64, 1024} {
						label := fmt.Sprintf("%s round %d shard %d", cname, round, shard)
						assertLevelKeyedScan(t, label, f, src, pool.ScanConfig{Shard: shard, Workers: 3, Skip: skip, Cache: cache})
					}
				}
			}
		})
	}
}

// assertLevelKeyedScan scans src through f with cfg and checks every
// delivered candidate against the float-row and scalar paths.
func assertLevelKeyedScan(t *testing.T, label string, f *Forest, src *pool.Uniform, cfg pool.ScanConfig) {
	t.Helper()
	sp := src.Space()
	var X [][]float64
	for g, si := 0, 0; g < src.Len(); g++ {
		if si < len(cfg.Skip) && cfg.Skip[si] == g {
			si++
			continue
		}
		c := make(space.Config, sp.NumParams())
		src.At(g, c)
		X = append(X, sp.Encode(c))
	}
	mu, sigma := f.PredictBatch(X)
	// consume runs on the scan's workers: record, then check here.
	type got struct {
		x     []float64
		m, s  float64
		times int
	}
	gots := make([]got, len(X))
	bad := -1
	err := pool.Scan(context.Background(), src, f, cfg, func(ord int, x []float64, m, s float64) {
		if ord < 0 || ord >= len(X) {
			bad = ord
			return
		}
		gots[ord] = got{x: append([]float64(nil), x...), m: m, s: s, times: gots[ord].times + 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad >= 0 {
		t.Fatalf("%s: ordinal %d out of range", label, bad)
	}
	for ord, g := range gots {
		if g.times != 1 {
			t.Fatalf("%s: ordinal %d delivered %d times", label, ord, g.times)
		}
		for j := range g.x {
			if !sameBits(g.x[j], X[ord][j]) {
				t.Fatalf("%s: ordinal %d feature %d: scan %v, Encode %v", label, ord, j, g.x[j], X[ord][j])
			}
		}
		if !sameBits(g.m, mu[ord]) || !sameBits(g.s, sigma[ord]) {
			t.Fatalf("%s: ordinal %d: scan (%v, %v), ScoreBatch (%v, %v)", label, ord, g.m, g.s, mu[ord], sigma[ord])
		}
		if wm, ws := f.PredictWithUncertainty(X[ord]); !sameBits(g.m, wm) || !sameBits(g.s, ws) {
			t.Fatalf("%s: ordinal %d: scan (%v, %v), scalar (%v, %v)", label, ord, g.m, g.s, wm, ws)
		}
	}
}
