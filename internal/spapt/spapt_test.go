package spapt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

func TestTwelveKernels(t *testing.T) {
	ks := All()
	if len(ks) != 12 {
		t.Fatalf("got %d kernels, paper models 12", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.Name()] {
			t.Fatalf("duplicate kernel %s", k.Name())
		}
		seen[k.Name()] = true
	}
}

func TestParameterCountsInPaperRange(t *testing.T) {
	// Paper §III-A: parameter counts range from 8 to 38.
	lo, hi := math.MaxInt, 0
	for _, k := range All() {
		n := k.NumParams()
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo < 8 || hi > 38 {
		t.Fatalf("parameter counts [%d, %d] outside the paper's 8–38", lo, hi)
	}
	if hi != 38 {
		t.Fatalf("largest kernel has %d params, want 38 (correlation)", hi)
	}
}

func TestSearchSpaceSizesInPaperRange(t *testing.T) {
	// Paper §III-A: search-space sizes range from about 1e10 to 1e30.
	for _, k := range All() {
		lg := k.Space().LogCardinality()
		if lg < 9 || lg > 36 {
			t.Fatalf("%s: log10 cardinality %.1f outside plausible range", k.Name(), lg)
		}
	}
}

func TestADITableI(t *testing.T) {
	// Table I: ADI has 8 tile, 4 unroll-jam, 4 regtile, scalar
	// replacement and vectorization parameters.
	rows := ADI().Table()
	want := map[string]int{"tile": 8, "unrolljam": 4, "regtile": 4, "scalarreplace": 1, "vector": 1}
	got := map[string]int{}
	for _, r := range rows {
		got[r.Type] = r.Number
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ADI table %s = %d, want %d (table: %+v)", k, got[k], v, rows)
		}
	}
	for _, r := range rows {
		if r.Type == "tile" && !strings.Contains(r.Values, "512") {
			t.Fatalf("tile values %q missing 512", r.Values)
		}
		if r.Type == "unrolljam" && !strings.Contains(r.Values, "31") {
			t.Fatalf("unrolljam values %q missing 31", r.Values)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.Name() != name {
			t.Fatalf("ByName(%s).Name() = %s", name, k.Name())
		}
		if k.Description() == "" {
			t.Fatalf("%s has no description", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestTrueTimePositiveFinite(t *testing.T) {
	r := rng.New(1)
	for _, k := range All() {
		for i := 0; i < 200; i++ {
			c := k.Space().SampleConfig(r)
			y := k.TrueTime(c)
			if y <= 0 || math.IsInf(y, 0) || math.IsNaN(y) {
				t.Fatalf("%s: TrueTime = %v for %s", k.Name(), y, k.Space().String(c))
			}
		}
	}
}

func TestTrueTimeDeterministic(t *testing.T) {
	k := ADI()
	c := k.Space().SampleConfig(rng.New(2))
	if k.TrueTime(c) != k.TrueTime(c) {
		t.Fatal("TrueTime not deterministic")
	}
}

func TestTimesInSubSecondRange(t *testing.T) {
	// §III-B: "execution time of these kernels is usually less than one
	// second". The whole space should sit between 1ms and ~30s, with the
	// median under a second for most kernels.
	r := rng.New(3)
	for _, k := range All() {
		times := make([]float64, 300)
		for i := range times {
			times[i] = k.TrueTime(k.Space().SampleConfig(r))
		}
		med := stats.Median(times)
		if med < 1e-3 || med > 30 {
			t.Fatalf("%s: median time %v implausible", k.Name(), med)
		}
	}
}

func TestSurfaceHasDynamicRange(t *testing.T) {
	// The tuning problem is only interesting if configurations differ a
	// lot: best/worst over a random sample should span at least 2x.
	r := rng.New(4)
	for _, k := range All() {
		times := make([]float64, 400)
		for i := range times {
			times[i] = k.TrueTime(k.Space().SampleConfig(r))
		}
		ratio := stats.Max(times) / stats.Min(times)
		if ratio < 2 {
			t.Fatalf("%s: dynamic range %.2fx too flat to tune", k.Name(), ratio)
		}
	}
}

func TestHighPerformanceRegionIsSmall(t *testing.T) {
	// The top 1% should be clearly faster than the median — a small
	// high-performance subspace is the paper's premise.
	r := rng.New(5)
	for _, k := range All() {
		times := make([]float64, 1000)
		for i := range times {
			times[i] = k.TrueTime(k.Space().SampleConfig(r))
		}
		p1 := stats.Quantile(times, 0.01)
		med := stats.Median(times)
		if p1 >= med {
			t.Fatalf("%s: p1 %v not below median %v", k.Name(), p1, med)
		}
	}
}

// configWith builds a config with all tiles set to tileLevel, unrolls to
// unrollLevel, regtiles to regLevel, and the two booleans.
func configWith(k *Kernel, tileLevel, unrollLevel, regLevel int, screp, vec bool) space.Config {
	sp := k.Space()
	c := make(space.Config, sp.NumParams())
	for i := 0; i < sp.NumParams(); i++ {
		p := sp.Param(i)
		switch {
		case strings.HasPrefix(p.Name, "RT"):
			c[i] = regLevel
		case strings.HasPrefix(p.Name, "T"):
			c[i] = tileLevel
		case strings.HasPrefix(p.Name, "U"):
			c[i] = unrollLevel
		case p.Name == "SCREP":
			if screp {
				c[i] = 1
			}
		case p.Name == "VEC":
			if vec {
				c[i] = 1
			}
		}
	}
	return c
}

func TestTilingNonMonotone(t *testing.T) {
	// Untiled (level 0 = tile size 1) must be slower than a medium tile
	// (64) for the memory-bound kernels: the capacity cliff.
	for _, name := range []string{"atax", "mvt", "jacobi"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		untiled := k.TrueTime(configWith(k, 0, 3, 0, false, false))
		medium := k.TrueTime(configWith(k, 3, 3, 0, false, false))
		if medium >= untiled {
			t.Fatalf("%s: tiling does not pay: untiled %v vs tiled %v", name, untiled, medium)
		}
	}
}

func TestVectorizationHelpsWithLargeTiles(t *testing.T) {
	k, _ := ByName("mm")
	base := k.TrueTime(configWith(k, 4, 3, 1, false, false))
	vec := k.TrueTime(configWith(k, 4, 3, 1, false, true))
	if vec >= base {
		t.Fatalf("mm: vectorization does not help: %v vs %v", base, vec)
	}
}

func TestRegisterPressureCliff(t *testing.T) {
	// Max unroll (level 30 = factor 31) with max register tile (level 2 =
	// 32) must be slower than moderate unroll with no register tile on a
	// compute-bound kernel.
	k, _ := ByName("mm")
	moderate := k.TrueTime(configWith(k, 4, 3, 0, false, false))
	pressure := k.TrueTime(configWith(k, 4, 30, 2, false, false))
	if pressure <= moderate {
		t.Fatalf("mm: no spill cliff: moderate %v vs pressure %v", moderate, pressure)
	}
}

func TestScalarReplacementHelpsHighReuseKernel(t *testing.T) {
	// hessian has reuseFrac 0.8; with memory-bound settings scalar
	// replacement should reduce time.
	k, _ := ByName("hessian")
	off := k.TrueTime(configWith(k, 0, 0, 0, false, false))
	on := k.TrueTime(configWith(k, 0, 0, 0, true, false))
	if on >= off {
		t.Fatalf("hessian: scalar replacement does not help: %v vs %v", off, on)
	}
}

func TestUnrollingHelpsComputeBound(t *testing.T) {
	k, _ := ByName("mm")
	u1 := k.TrueTime(configWith(k, 4, 0, 0, false, false)) // unroll 1
	u6 := k.TrueTime(configWith(k, 4, 5, 0, false, false)) // unroll 6
	if u6 >= u1 {
		t.Fatalf("mm: unrolling does not help: %v vs %v", u1, u6)
	}
}

func TestEveryParameterKindInfluencesTime(t *testing.T) {
	// Flipping each parameter group away from a baseline must change the
	// time for at least one group member — no dead parameter kinds.
	for _, k := range All() {
		base := configWith(k, 3, 3, 1, false, false)
		baseT := k.TrueTime(base)
		changedKinds := map[string]bool{}
		sp := k.Space()
		for i := 0; i < sp.NumParams(); i++ {
			c := base.Clone()
			c[i] = (c[i] + 1) % sp.Param(i).NumLevels()
			if k.TrueTime(c) != baseT {
				p := sp.Param(i)
				switch {
				case strings.HasPrefix(p.Name, "RT"):
					changedKinds["regtile"] = true
				case strings.HasPrefix(p.Name, "T"):
					changedKinds["tile"] = true
				case strings.HasPrefix(p.Name, "U"):
					changedKinds["unroll"] = true
				default:
					changedKinds[p.Name] = true
				}
			}
		}
		for _, kind := range []string{"tile", "unroll", "regtile", "SCREP", "VEC"} {
			if !changedKinds[kind] {
				t.Fatalf("%s: parameter kind %s never affects time", k.Name(), kind)
			}
		}
	}
}

func TestFeasibility(t *testing.T) {
	k := ADI()
	// Default config (everything minimal) is feasible.
	base := make(space.Config, k.Space().NumParams())
	if !k.Feasible(base) {
		t.Fatal("baseline config infeasible")
	}
	// Max unroll (31) with register tile 32 exceeds the body budget.
	bad := configWith(k, 3, 30, 2, false, false)
	if k.Feasible(bad) {
		t.Fatal("u=31 x rt=32 should be infeasible")
	}
}

func TestInfeasiblePenalty(t *testing.T) {
	k := ADI()
	bad := configWith(k, 3, 30, 2, false, false)
	good := configWith(k, 3, 3, 0, false, false)
	badT := k.TrueTime(bad)
	if badT <= k.TrueTime(good) {
		t.Fatal("infeasible variant not slower than a good one")
	}
	// Penalty is deterministic (cached baseline) and identical across
	// infeasible configs of the same kernel.
	bad2 := configWith(k, 0, 29, 2, true, true)
	if k.TrueTime(bad2) != badT {
		t.Fatal("infeasible fallback not constant")
	}
}

func TestInfeasibleFractionSmall(t *testing.T) {
	// The constraint must exclude a corner, not the space.
	r := rng.New(11)
	for _, k := range All() {
		bad := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if !k.Feasible(k.Space().SampleConfig(r)) {
				bad++
			}
		}
		// SPAPT reports sizeable failed-variant rates on its larger
		// problems; a quarter of the space is the ceiling we accept.
		if frac := float64(bad) / n; frac > 0.25 {
			t.Fatalf("%s: %.0f%% of space infeasible", k.Name(), frac*100)
		}
	}
}

func TestSourceListings(t *testing.T) {
	for _, k := range All() {
		src := k.Source()
		if src == "" {
			t.Fatalf("%s has no source listing", k.Name())
		}
		if !strings.Contains(src, "for") {
			t.Fatalf("%s source does not look like a loop nest", k.Name())
		}
	}
	// Listing 1 of the paper: the ADI update involves X, A and B.
	adi := ADI().Source()
	for _, sym := range []string{"X[i1][i2]", "A[i1][i2]", "B[i1][i2-1]"} {
		if !strings.Contains(adi, sym) {
			t.Fatalf("ADI listing missing %s", sym)
		}
	}
}

func BenchmarkTrueTimeADI(b *testing.B) {
	k := ADI()
	c := k.Space().SampleConfig(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.TrueTime(c)
	}
}
