package forest

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// rankedSpace draws a training set that stresses the shared-rank path:
// numeric columns on 2–5 levels with the zero level stored as -0 or +0
// at random, categorical columns with 2–5 categories, and duplicated
// rows (same configuration, fresh noisy target).
func rankedSpace(r *rng.RNG, n, d int) (X [][]float64, y []float64, fs []space.Feature) {
	fs = make([]space.Feature, d)
	levels := make([]int, d)
	for j := range fs {
		levels[j] = 2 + r.Intn(4)
		if r.Bool(0.3) {
			fs[j] = space.Feature{Name: "c", Kind: space.FeatCategorical, NumCategories: levels[j]}
		} else {
			fs[j] = space.Feature{Name: "x", Kind: space.FeatNumeric}
		}
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		if i > 0 && r.Bool(0.3) {
			copy(row, X[r.Intn(i)])
		} else {
			for j, f := range fs {
				lv := r.Intn(levels[j])
				if f.Kind == space.FeatCategorical {
					row[j] = float64(lv)
					continue
				}
				row[j] = 0.25 * float64(lv-levels[j]/2)
				if row[j] == 0 && r.Bool(0.5) {
					row[j] = math.Copysign(0, -1)
				}
			}
		}
		X[i] = row
		y[i] = 2*row[0] - row[d-1]*row[d/2] + 0.3*r.Norm()
	}
	return X, y, fs
}

// referenceTree replays one ensemble slot outside the forest: it draws
// the slot's bootstrap from the slot's child stream exactly as the
// forest does, fits it with tree.FitReference on the materialised
// sample, and returns the tree plus the child stream's next value.
func referenceTree(t *testing.T, X [][]float64, y []float64, fs []space.Feature, cfg Config, parent *rng.RNG, slot int) (*tree.Regressor, uint64) {
	t.Helper()
	tr := parent.Child(uint64(slot))
	n := len(X)
	bx, by := X, y
	if !cfg.DisableBagging {
		bx, by = make([][]float64, n), make([]float64, n)
		for i := range bx {
			j := tr.Intn(n)
			bx[i], by[i] = X[j], y[j]
		}
	}
	ref, err := tree.FitReference(bx, by, fs, cfg.Tree, tr)
	if err != nil {
		t.Fatal(err)
	}
	return ref, tr.Uint64()
}

// rankedTree replays one slot through the ranked path the forest runs
// (the same bootstrap draws, then tree.FitRanked on shared ranks) and
// returns the child stream's next value after the fit.
func rankedTree(t *testing.T, X [][]float64, y []float64, fs []space.Feature, cfg Config, parent *rng.RNG, slot int) uint64 {
	t.Helper()
	tr := parent.Child(uint64(slot))
	rk, err := tree.RankColumns(X, fs)
	if err != nil {
		t.Fatal(err)
	}
	picks := make([]int32, len(X))
	if cfg.DisableBagging {
		for i := range picks {
			picks[i] = int32(i)
		}
	} else {
		drawBootstrap(picks, nil, tr)
	}
	if _, err := tree.FitRanked(rk, y, picks, cfg.Tree, tr, nil); err != nil {
		t.Fatal(err)
	}
	return tr.Uint64()
}

// sameTree compares two trees through their JSON dump, which writes
// every float in its shortest exactly-round-tripping form: structure,
// split features, thresholds, category sets and leaf statistics.
func sameTree(t *testing.T, got, want *tree.Regressor) bool {
	t.Helper()
	a, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(a, b)
}

// TestRankedBaggedMatchesReference is the training engine's forest-level
// contract: every tree that forest.Fit and forest.Update build from the
// shared column ranks must equal tree.FitReference on the materialised
// bootstrap of its slot, and the ranked path must leave each slot's
// generator in the reference's end state. Small sets give bootstraps
// with heavy multiplicity; the spaces mix -0/+0, duplicate rows,
// categorical columns and MaxFeatures < d.
func TestRankedBaggedMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed * 104729)
		n := 6 + r.Intn(60)
		d := 1 + r.Intn(5)
		X, y, fs := rankedSpace(r, n+n/2, d)
		cfg := Config{
			NumTrees:       4 + r.Intn(9),
			Workers:        1 + r.Intn(3),
			DisableBagging: seed%4 == 0,
			Tree:           tree.Config{MinSamplesLeaf: 1 + r.Intn(3), KeepTargets: r.Bool(0.5)},
		}
		if d > 1 {
			cfg.Tree.MaxFeatures = 1 + r.Intn(d-1)
		}
		check := func(stage string, f *Forest, cfg Config, X [][]float64, y []float64, parent *rng.RNG, slots []int) {
			for _, slot := range slots {
				ref, refNext := referenceTree(t, X, y, fs, cfg, parent, slot)
				if !sameTree(t, f.trees[slot], ref) {
					t.Fatalf("seed %d %s: slot %d differs from FitReference on its bootstrap", seed, stage, slot)
				}
				if got := rankedTree(t, X, y, fs, cfg, parent, slot); got != refNext {
					t.Fatalf("seed %d %s: slot %d generator end state differs from the reference", seed, stage, slot)
				}
			}
		}

		fitR := rng.New(seed)
		f, err := Fit(X[:n], y[:n], fs, cfg, fitR)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, cfg.NumTrees)
		for i := range all {
			all[i] = i
		}
		check("Fit", f, cfg, X[:n], y[:n], rng.New(seed), all)
		if fitR.Uint64() != rng.New(seed).Uint64() {
			t.Fatalf("seed %d: Fit advanced the caller's generator", seed)
		}

		// Two updates on the grown set refresh consecutive quarters; an
		// update always bootstraps, whatever DisableBagging says.
		upCfg := cfg
		upCfg.DisableBagging = false
		k := cfg.NumTrees / 4
		for u := 0; u < 2; u++ {
			upSeed := seed*31 + uint64(u)
			if err := f.Update(X, y, rng.New(upSeed)); err != nil {
				t.Fatal(err)
			}
			slots := make([]int, k)
			for i := range slots {
				slots[i] = (u*k + i) % cfg.NumTrees
			}
			check("Update", f, upCfg, X, y, rng.New(upSeed), slots)
		}
	}
}

// TestFitRejectsNonFinite pins the finiteness check at the forest layer:
// Fit and Update reject NaN and ±Inf features naming the row and column,
// once per call rather than once per tree.
func TestFitRejectsNonFinite(t *testing.T) {
	X, y := friedman(rng.New(3), 40)
	fs := numFeatures(7)
	f, err := Fit(X, y, fs, Config{NumTrees: 8}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		Xb := append([][]float64(nil), X...)
		Xb[17] = append([]float64(nil), X[17]...)
		Xb[17][5] = bad
		if _, err := Fit(Xb, y, fs, Config{NumTrees: 8}, rng.New(4)); err == nil || !strings.Contains(err.Error(), "row 17 column 5") {
			t.Fatalf("Fit with %v: err = %v, want one naming row 17 column 5", bad, err)
		}
		if err := f.Update(Xb, y, rng.New(5)); err == nil || !strings.Contains(err.Error(), "row 17 column 5") {
			t.Fatalf("Update with %v: err = %v, want one naming row 17 column 5", bad, err)
		}
	}
}
