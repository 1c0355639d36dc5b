package tree

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// mixedSpace draws a random feature schema: numeric and categorical
// columns in random positions, with numeric values quantised to a random
// number of levels so duplicate values (and whole duplicate rows) occur.
func mixedSpace(r *rng.RNG, n, d int) (X [][]float64, y []float64, fs []space.Feature) {
	fs = make([]space.Feature, d)
	levels := make([]int, d)
	for j := range fs {
		switch r.Intn(3) {
		case 0:
			fs[j] = space.Feature{Name: "c", Kind: space.FeatCategorical, NumCategories: 2 + r.Intn(6)}
		default:
			fs[j] = space.Feature{Name: "x", Kind: space.FeatNumeric}
			levels[j] = 2 + r.Intn(12) // coarse grid → many ties
		}
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j, f := range fs {
			if f.Kind == space.FeatCategorical {
				row[j] = float64(r.Intn(f.NumCategories))
			} else {
				row[j] = float64(r.Intn(levels[j])) / float64(levels[j])
			}
		}
		X[i] = row
		y[i] = 3*row[0] + row[d-1]*row[d/2] + 0.1*r.Norm()
	}
	return X, y, fs
}

// fitWhole fits the whole set (X, y) on the presorted engine through ws,
// the workspace-reusing form of Fit.
func fitWhole(X [][]float64, y []float64, fs []space.Feature, cfg Config, r *rng.RNG, ws *Workspace) (*Regressor, error) {
	rk, err := RankColumns(X, fs)
	if err != nil {
		return nil, err
	}
	picks := make([]int32, len(X))
	for i := range picks {
		picks[i] = int32(i)
	}
	return FitRanked(rk, y, picks, cfg, r, ws)
}

// fitBoth runs the presorted and reference builders on identical inputs
// with identically seeded generators and checks bit-identical trees plus
// identical RNG stream consumption (the two generators must produce the
// same next value after the fits).
func fitBoth(t *testing.T, X [][]float64, y []float64, fs []space.Feature, cfg Config, seed uint64, ws *Workspace) {
	t.Helper()
	var r1, r2 *rng.RNG
	if seed != 0 {
		r1, r2 = rng.New(seed), rng.New(seed)
	}
	got, err1 := fitWhole(X, y, fs, cfg, r1, ws)
	want, err2 := FitReference(X, y, fs, cfg, r2)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: presorted=%v reference=%v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if !nodesEqual(want.root, got) {
		t.Fatalf("trees differ (n=%d d=%d cfg=%+v seed=%d)", len(X), len(fs), cfg, seed)
	}
	if r1 != nil && r1.Uint64() != r2.Uint64() {
		t.Fatalf("RNG streams diverged (cfg=%+v seed=%d)", cfg, seed)
	}
}

// TestBuilderEquivalenceProperty is the presorted engine's contract: on
// randomized mixed spaces and configurations, both builders must emit
// bit-identical trees while consuming identical RNG streams. The shared
// workspace across iterations also exercises buffer reuse between fits
// of different shapes.
func TestBuilderEquivalenceProperty(t *testing.T) {
	ws := NewWorkspace()
	for seed := uint64(1); seed <= 25; seed++ {
		r := rng.New(seed * 1000003)
		n := 30 + r.Intn(250)
		d := 1 + r.Intn(8)
		X, y, fs := mixedSpace(r, n, d)
		cfg := Config{
			MaxDepth:       r.Intn(8), // 0 = unlimited
			MinSamplesLeaf: 1 + r.Intn(5),
			KeepTargets:    r.Bool(0.5),
		}
		if r.Bool(0.3) {
			cfg.MinSamplesSplit = 2 + r.Intn(10)
		}
		if r.Bool(0.2) {
			cfg.MinImpurityDecrease = r.Float64() * 0.1
		}
		var seedForFit uint64
		if r.Bool(0.5) && d > 1 {
			cfg.MaxFeatures = 1 + r.Intn(d) // random subspace → RNG consumed per node
			seedForFit = seed*7 + 1
		}
		fitBoth(t, X, y, fs, cfg, seedForFit, ws)
	}
}

// TestBuilderEquivalenceAllCategorical pins the categorical-only path
// (no presorted columns at all).
func TestBuilderEquivalenceAllCategorical(t *testing.T) {
	r := rng.New(7)
	fs := []space.Feature{
		{Name: "a", Kind: space.FeatCategorical, NumCategories: 5},
		{Name: "b", Kind: space.FeatCategorical, NumCategories: 3},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 8},
	}
	n := 180
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(r.Intn(5)), float64(r.Intn(3)), float64(r.Intn(8))}
		y[i] = X[i][0]*2 - X[i][1] + 0.2*r.Norm()
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 2, MinSamplesLeaf: 3}, 11, nil)
	fitBoth(t, X, y, fs, Config{KeepTargets: true, MaxDepth: 3}, 0, nil)
}

// TestBuilderEquivalenceConstantFeatures pins spaces where every feature
// is constant (the tree must be a single leaf) and where constants mix
// with one informative column under a subspace quota.
func TestBuilderEquivalenceConstantFeatures(t *testing.T) {
	n := 60
	fs := []space.Feature{
		{Name: "k1", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 4},
		{Name: "k2", Kind: space.FeatNumeric},
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{3.5, 2, -1}
		y[i] = float64(i % 7)
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1}, 13, nil)

	// One informative column among constants: mtry=1 must keep skipping
	// the constants without burning the quota, in both builders.
	for i := range X {
		X[i] = []float64{3.5, 2, float64(i)}
	}
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1}, 17, nil)
}

// TestBuilderEquivalenceDuplicateX pins heavy duplicate-value columns:
// repeated configs with different noisy targets, where split positions
// are only legal between distinct values and tied-value prefix sums must
// accumulate in the same order in both builders.
func TestBuilderEquivalenceDuplicateX(t *testing.T) {
	r := rng.New(19)
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "z", Kind: space.FeatNumeric},
	}
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(r.Intn(3)), float64(r.Intn(2))} // 3x2 grid, ~33 copies per cell
		y[i] = 5*X[i][0] + X[i][1] + r.Norm()
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{KeepTargets: true}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1, MinSamplesLeaf: 4}, 23, nil)
}

// TestBuilderEquivalenceMinLeafBoundary pins the minLeaf pruning edge:
// leaf minima at and just beyond the sizes where any split is legal.
func TestBuilderEquivalenceMinLeafBoundary(t *testing.T) {
	r := rng.New(29)
	fs := []space.Feature{{Name: "x", Kind: space.FeatNumeric}}
	n := 20
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(i)}
		y[i] = float64(i) + 0.5*r.Norm()
	}
	for _, minLeaf := range []int{1, 9, 10, 11, n} {
		fitBoth(t, X, y, fs, Config{MinSamplesLeaf: minLeaf}, 0, nil)
	}
	for _, minSplit := range []int{2, n - 1, n, n + 1} {
		fitBoth(t, X, y, fs, Config{MinSamplesSplit: minSplit}, 0, nil)
	}
}

// TestBuilderEquivalenceSignedZeroAndUlp pins the two places where
// "same rank" must mean exactly the reference's "same value". One column
// mixes -0 and +0, equal by == but distinct in bits: the -0 rows come
// first in sample order and carry a much larger target, so an engine that
// split between the two zeros would find its best gain there. The other
// column's levels are one ulp apart, where the midpoint threshold can
// round onto a level and leave a degenerate partition.
func TestBuilderEquivalenceSignedZeroAndUlp(t *testing.T) {
	r := rng.New(41)
	ulps := []float64{1}
	for len(ulps) < 5 {
		ulps = append(ulps, math.Nextafter(ulps[len(ulps)-1], 2))
	}
	fs := numFeatures(2)
	n := 150
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		z := []float64{0, 0, -0.5, 0.5}[r.Intn(4)]
		if z == 0 && i < n/2 {
			z = math.Copysign(0, -1)
		}
		u := r.Intn(len(ulps))
		X[i] = []float64{z, ulps[u]}
		y[i] = 3*float64(u) + 0.1*r.Norm()
		if math.Signbit(z) {
			y[i] += 50
		}
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{KeepTargets: true, MinSamplesLeaf: 2}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1}, 43, nil)
}

// TestStablePartitionMatchesOracle pins the branch-free partitions to
// the branchy oracles of reference_test.go: the same runs, the same left
// count, on random, all-left and all-right masks over segments of every
// awkward length, with shuffled positions so stability is visible.
func TestStablePartitionMatchesOracle(t *testing.T) {
	r := rng.New(47)
	for _, n := range []int{0, 1, 2, 7, 64, 513} {
		for _, kind := range []string{"random", "all-left", "all-right"} {
			mask := make([]uint8, n)
			for i := range mask {
				switch kind {
				case "random":
					mask[i] = uint8(r.Intn(2))
				case "all-left":
					mask[i] = 1
				}
			}
			perm := r.Perm(n)
			seg := make([]int32, n)
			col := make([]uint64, n)
			for k, p := range perm {
				seg[k] = int32(p)
				col[k] = entry(int32(r.Intn(5)), p)
			}
			wantSeg, wantCol := slices.Clone(seg), slices.Clone(col)
			wantNL := refPartitionIdx(wantSeg, mask, make([]int32, n))
			refPartitionCol(wantCol, mask, make([]uint64, n))

			nl := stablePartitionIdx(seg, mask, make([]int32, n))
			stablePartitionCol(col, mask, make([]uint64, n))
			if nl != wantNL || !slices.Equal(seg, wantSeg) {
				t.Fatalf("n=%d %s: idx partition %v (left %d), oracle %v (left %d)", n, kind, seg, nl, wantSeg, wantNL)
			}
			if !slices.Equal(col, wantCol) {
				t.Fatalf("n=%d %s: column partition %v, oracle %v", n, kind, col, wantCol)
			}
		}
	}
}

// TestWorkspaceReuseMatchesFresh fits a sequence of differently-shaped
// problems through one workspace and checks each against a fresh-
// workspace fit, guarding against stale-buffer leakage between fits.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := NewWorkspace()
	r := rng.New(31)
	shapes := []struct{ n, d int }{{300, 6}, {40, 2}, {150, 9}, {55, 1}, {220, 4}}
	for _, sh := range shapes {
		X, y, fs := mixedSpace(r, sh.n, sh.d)
		cfg := Config{MinSamplesLeaf: 2, KeepTargets: sh.d%2 == 0}
		reused, err := fitWhole(X, y, fs, cfg, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := fitWhole(X, y, fs, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("workspace reuse changed the tree at shape %+v", sh)
		}
	}
}

// TestPresortedMatchesExistingBehaviors spot-checks that the presorted
// engine (the default Fit) upholds the structural guarantees the rest of
// the suite asserts — binary consistency and prediction equality with
// the reference — on a larger mixed problem.
func TestPresortedMatchesExistingBehaviors(t *testing.T) {
	r := rng.New(37)
	X, y, fs := mixedSpace(r, 400, 7)
	tr, err := Fit(X, y, fs, Config{MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.nodes) != 2*numLeaves(tr)-1 {
		t.Fatalf("nodes=%d leaves=%d not binary-consistent", len(tr.nodes), numLeaves(tr))
	}
	ref, err := FitReference(X, y, fs, Config{MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := X[r.Intn(len(X))]
		m1, v1, c1 := tr.PredictStats(probe)
		m2, v2, c2 := ref.predict(probe)
		if m1 != m2 || v1 != v2 || c1 != c2 {
			t.Fatalf("prediction mismatch at probe %d", i)
		}
	}
}

// TestRankColumns pins the ranking contract: dense ranks in value order,
// equal values (including -0 and +0) sharing one rank, and no ranks for
// categorical columns.
func TestRankColumns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 3},
	}
	X := [][]float64{{0.5, 2}, {negZero, 0}, {-1, 1}, {0, 1}, {0.5, 0}, {-1, 2}}
	rk, err := RankColumns(X, fs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{2, 1, 0, 1, 2, 0}
	for i, r := range rk.rank[0] {
		if r != want[i] {
			t.Fatalf("rank[0] = %v, want %v", rk.rank[0], want)
		}
	}
	if rk.levels[0] != 3 {
		t.Fatalf("levels[0] = %d, want 3", rk.levels[0])
	}
	if rk.rank[1] != nil {
		t.Fatal("categorical column was ranked")
	}
}

// TestRankedSampleMatchesReference is the ranked path's contract at the
// tree layer: FitRanked on a row sample (bootstraps with heavy
// multiplicity, repeated rows, mixed -0/+0 values, subspacing) must emit
// the tree FitReference builds on the materialised sample and consume
// the generator identically.
func TestRankedSampleMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed * 7919)
		n := 5 + r.Intn(80)
		d := 1 + r.Intn(6)
		X, y, fs := mixedSpace(r, n, d)
		for _, row := range X {
			for j, v := range row {
				if v == 0 && fs[j].Kind == space.FeatNumeric && r.Bool(0.5) {
					row[j] = math.Copysign(0, -1)
				}
			}
		}
		rk, err := RankColumns(X, fs)
		if err != nil {
			t.Fatal(err)
		}
		// Draw from a small subset of rows so multiplicities are heavy.
		m := 1 + r.Intn(n)
		picks := make([]int32, n+r.Intn(n))
		bx := make([][]float64, len(picks))
		by := make([]float64, len(picks))
		for k := range picks {
			picks[k] = int32(r.Intn(m))
			bx[k], by[k] = X[picks[k]], y[picks[k]]
		}
		cfg := Config{MinSamplesLeaf: 1 + r.Intn(3), KeepTargets: r.Bool(0.5)}
		if d > 1 && r.Bool(0.6) {
			cfg.MaxFeatures = 1 + r.Intn(d-1)
		}
		r1, r2 := rng.New(seed), rng.New(seed)
		got, err := FitRanked(rk, y, picks, cfg, r1, ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FitReference(bx, by, fs, cfg, r2)
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(want.root, got) {
			t.Fatalf("seed %d: ranked tree differs from the reference (n=%d d=%d cfg=%+v)", seed, n, d, cfg)
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("seed %d: RNG streams diverged", seed)
		}
	}
}

// TestRankedFitErrors pins FitRanked's argument checks.
func TestRankedFitErrors(t *testing.T) {
	rk, err := RankColumns([][]float64{{1}, {2}}, numFeatures(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitRanked(rk, []float64{1}, []int32{0}, Config{}, nil, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitRanked(rk, []float64{1, 2}, nil, Config{}, nil, nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := FitRanked(rk, []float64{1, 2}, []int32{0, 2}, Config{}, nil, nil); err == nil {
		t.Fatal("out-of-range pick accepted")
	}
}

// TestFitRejectsNonFinite pins the finiteness check: ranking needs a
// total order, so NaN and ±Inf feature values are rejected by every
// entry point with an error naming the row and column.
func TestFitRejectsNonFinite(t *testing.T) {
	fs := numFeatures(2)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X := [][]float64{{1, 2}, {3, 4}, {5, bad}}
		y := []float64{1, 2, 3}
		for name, fit := range map[string]func() error{
			"Fit":          func() error { _, err := Fit(X, y, fs, Config{}, nil); return err },
			"FitReference": func() error { _, err := FitReference(X, y, fs, Config{}, nil); return err },
			"RankColumns":  func() error { _, err := RankColumns(X, fs); return err },
		} {
			err := fit()
			if err == nil {
				t.Fatalf("%s accepted %v", name, bad)
			}
			if !strings.Contains(err.Error(), "row 2 column 1") {
				t.Fatalf("%s error does not name the cell: %v", name, err)
			}
		}
	}
}
