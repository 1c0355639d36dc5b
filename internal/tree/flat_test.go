package tree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// mixedData generates n rows over a mixed numeric/categorical schema
// with an interacting target.
func mixedData(r *rng.RNG, n int) (X [][]float64, y []float64, fs []space.Feature) {
	fs = []space.Feature{
		{Name: "a", Kind: space.FeatNumeric},
		{Name: "b", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 5},
		{Name: "d", Kind: space.FeatCategorical, NumCategories: 70}, // > 64: two bitmap words
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		c := r.Intn(5)
		d := r.Intn(70)
		X[i] = []float64{r.Float64(), r.Float64() * 10, float64(c), float64(d)}
		y[i] = X[i][0]*3 + math.Sin(X[i][1]) + float64(c%2)*5 + float64(d%3)
	}
	return X, y, fs
}

// checkAgainstOracle asserts that every probe routes through the flat
// tree exactly as through the pointer oracle: the scalar float walk
// (PredictStats, Predict), the leaf targets, and the eight-lane keyed
// walk (Leaf8T) over every probe, by exact bits.
func checkAgainstOracle(t *testing.T, name string, tr *Regressor, ref *refTree, probes [][]float64) {
	t.Helper()
	want := make([]int32, len(probes))
	for i, x := range probes {
		pm, pv, pn := ref.predict(x)
		cm, cv, cn := tr.PredictStats(x)
		if math.Float64bits(pm) != math.Float64bits(cm) || math.Float64bits(pv) != math.Float64bits(cv) || pn != cn {
			t.Fatalf("%s probe %d %v: oracle (%v,%v,%d) flat (%v,%v,%d)", name, i, x, pm, pv, pn, cm, cv, cn)
		}
		if p := tr.Predict(x); math.Float64bits(p) != math.Float64bits(pm) {
			t.Fatalf("%s probe %d: Predict %v, oracle %v", name, i, p, pm)
		}
		if got, wantTs := tr.LeafTargets(x), ref.leafOf(x).targets; !slices.Equal(got, wantTs) || (got == nil) != (wantTs == nil) {
			t.Fatalf("%s probe %d: LeafTargets %v, oracle %v", name, i, got, wantTs)
		}
		want[i] = tr.leaf(x)
	}
	d := len(probes[0])
	xk := keyGroups(probes, d)
	for j := 0; j < len(probes); j += 8 {
		l0, l1, l2, l3, l4, l5, l6, l7 := tr.Leaf8T(xk[j*d : (j+8)*d])
		for k, l := range [8]int32{l0, l1, l2, l3, l4, l5, l6, l7} {
			if j+k < len(probes) && l != want[j+k] {
				t.Fatalf("%s probe %d %v: Leaf8T leaf %d, scalar leaf %d", name, j+k, probes[j+k], l, want[j+k])
			}
		}
	}
}

// TestCompiledMatchesPointer: the flat tree the presorted engine emits
// must hold exactly the pointer tree the reference builder grows on the
// same inputs and generator, and route every probe as the oracle's
// float compare and bool category list do — probes one ulp either side
// of every threshold, NaN of both signs, both zeros, the infinities, and
// negative, fractional and out-of-range category codes included.
func TestCompiledMatchesPointer(t *testing.T) {
	X, y, fs := mixedData(rng.New(1), 400)
	for _, cfg := range []Config{
		{},
		{MaxDepth: 3},
		{MinSamplesLeaf: 7},
		{MaxFeatures: 2},
		{KeepTargets: true, MinSamplesLeaf: 3},
	} {
		tr, err := Fit(X, y, fs, cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FitReference(X, y, fs, cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(ref.root, tr) {
			t.Fatalf("cfg %+v: flat tree differs from the oracle", cfg)
		}
		probes, _, _ := mixedData(rng.New(3), 300)
		probes = append(probes,
			[]float64{0.5, 1, -1, 0},
			[]float64{0.5, 1, 5, 69},
			[]float64{0.5, 1, 0, 70},
			[]float64{0.5, 1, 99, -3},
		)
		checkAgainstOracle(t, fmt.Sprintf("cfg %+v", cfg), tr, ref, adversarialRows(tr, probes, rng.New(4)))
	}
}

// TestCompiledSingleLeaf: a constant target yields a pure root, so the
// tree is a lone leaf of depth 0 that every walk — NaN rows included —
// must settle on without indexing its (absent) children.
func TestCompiledSingleLeaf(t *testing.T) {
	fs := []space.Feature{{Name: "a", Kind: space.FeatNumeric}}
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{7, 7, 7}
	tr, err := Fit(X, y, fs, Config{}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.nodes) != 1 || tr.Depth() != 0 || numLeaves(tr) != 1 {
		t.Fatalf("constant target built %d nodes, depth %d", len(tr.nodes), tr.Depth())
	}
	m, v, n := tr.PredictStats([]float64{-100})
	if m != 7 || v != 0 || n != 3 {
		t.Fatalf("leaf stats (%v,%v,%d)", m, v, n)
	}
	ref, err := FitReference(X, y, fs, Config{}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(ref.root, tr) {
		t.Fatal("lone leaf differs from the oracle")
	}
	var probes [][]float64
	for _, v := range specialValues {
		probes = append(probes, []float64{v})
	}
	checkAgainstOracle(t, "single-leaf", tr, ref, probes)
}

// TestCompiledSerializeRoundTrip: a tree decoded from its JSON must be
// the oracle's tree again — the decoder writes the same flat arrays the
// builder does — and route every adversarial probe as the oracle does,
// numeric, categorical and leaf-target trees alike.
func TestCompiledSerializeRoundTrip(t *testing.T) {
	X, y, fs := mixedData(rng.New(5), 200)
	for _, cfg := range []Config{{}, {KeepTargets: true, MinSamplesLeaf: 2}, {MaxFeatures: 1, MaxDepth: 5}} {
		tr, err := Fit(X, y, fs, cfg, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		data, err := tr.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := UnmarshalJSONWithFeatures(data, fs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FitReference(X, y, fs, cfg, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(ref.root, tr2) {
			t.Fatalf("cfg %+v: decoded tree differs from the oracle", cfg)
		}
		if again, err := tr2.MarshalJSON(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("cfg %+v: re-encoded tree differs (err %v)", cfg, err)
		}
		probes, _, _ := mixedData(rng.New(7), 100)
		checkAgainstOracle(t, fmt.Sprintf("decoded cfg %+v", cfg), tr2, ref, adversarialRows(tr2, probes, rng.New(8)))
	}
}

func BenchmarkPredictPointerWalk(b *testing.B) {
	X, y, fs := mixedData(rng.New(8), 500)
	ref, err := FitReference(X, y, fs, Config{}, rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	probes, _, _ := mixedData(rng.New(10), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range probes {
			ref.predict(x)
		}
	}
}

func BenchmarkPredictFlat(b *testing.B) {
	X, y, fs := mixedData(rng.New(8), 500)
	tr, err := Fit(X, y, fs, Config{}, rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	probes, _, _ := mixedData(rng.New(10), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range probes {
			tr.PredictStats(x)
		}
	}
}
