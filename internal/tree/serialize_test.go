package tree

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

func TestTreeJSONRoundTripNumeric(t *testing.T) {
	r := rng.New(1)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64(), r.Float64()}
		y[i] = X[i][0]*3 + X[i][1]
	}
	fs := numFeatures(2)
	tr, err := Fit(X, y, fs, Config{MinSamplesLeaf: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := UnmarshalJSONWithFeatures(data, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := []float64{r.Float64(), r.Float64()}
		m1, v1, c1 := tr.PredictStats(probe)
		m2, v2, c2 := tr2.PredictStats(probe)
		if m1 != m2 || v1 != v2 || c1 != c2 {
			t.Fatal("round trip changed leaf stats")
		}
	}
	if len(tr.nodes) != len(tr2.nodes) || tr.Depth() != tr2.Depth() {
		t.Fatal("round trip changed structure")
	}
}

func TestTreeJSONRoundTripCategorical(t *testing.T) {
	fs := []space.Feature{{Name: "c", Kind: space.FeatCategorical, NumCategories: 6}}
	var X [][]float64
	var y []float64
	for rep := 0; rep < 4; rep++ {
		for c := 0; c < 6; c++ {
			X = append(X, []float64{float64(c)})
			y = append(y, float64(c%3)*10)
		}
	}
	tr, err := Fit(X, y, fs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := UnmarshalJSONWithFeatures(data, fs)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		if tr.Predict([]float64{float64(c)}) != tr2.Predict([]float64{float64(c)}) {
			t.Fatalf("category %d predicts differently after round trip", c)
		}
	}
}

func TestTreeJSONKeepTargets(t *testing.T) {
	X := [][]float64{{1}, {1}, {2}, {2}}
	y := []float64{1, 3, 10, 12}
	tr, err := Fit(X, y, numFeatures(1), Config{KeepTargets: true, MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := UnmarshalJSONWithFeatures(data, numFeatures(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := tr2.LeafTargets([]float64{1})
	if len(ts) != 2 || ts[0] != 1 || ts[1] != 3 {
		t.Fatalf("leaf targets lost: %v", ts)
	}
	// A tree without KeepTargets round-trips to nil targets.
	plain, err := Fit(X, y, numFeatures(1), Config{MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := json.Marshal(plain)
	plain2, err := UnmarshalJSONWithFeatures(data2, numFeatures(1))
	if err != nil {
		t.Fatal(err)
	}
	if plain2.LeafTargets([]float64{1}) != nil {
		t.Fatal("targets materialized from nowhere")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	fs := numFeatures(1)
	cases := []string{
		``,
		`{"config":{}}`, // no root
		`{"config":{},"root":{"m":1,"v":0,"n":1,"l":{"m":1,"v":0,"n":1}}}`,                                               // one child
		`{"config":{},"root":{"f":0,"cl":[5],"nc":3,"l":{"m":1,"v":0,"n":1},"r":{"m":2,"v":0,"n":1},"m":1,"v":0,"n":2}}`, // category out of range
		`{"config":{},"root":{"f":0,"cl":[0],"l":{"m":1,"v":0,"n":1},"r":{"m":2,"v":0,"n":1},"m":1,"v":0,"n":2}}`,        // categorical without count
	}
	for i, s := range cases {
		if _, err := UnmarshalJSONWithFeatures([]byte(s), fs); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestLeafTargetsRouting(t *testing.T) {
	// Distinct leaves must return their own target sets.
	X := [][]float64{{0}, {0}, {10}, {10}}
	y := []float64{1, 2, 100, 101}
	tr, err := Fit(X, y, numFeatures(1), Config{KeepTargets: true, MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	left := tr.LeafTargets([]float64{0})
	right := tr.LeafTargets([]float64{10})
	if len(left) != 2 || left[1] != 2 {
		t.Fatalf("left leaf targets %v", left)
	}
	if len(right) != 2 || right[0] != 100 {
		t.Fatalf("right leaf targets %v", right)
	}
}

// dumpNode and referenceJSON are the reflective encoder AppendJSON
// replaced, kept as its oracle: encoding/json over the nodeDump form of
// the pointer oracle tree.
func dumpNode(n *refNode) *nodeDump {
	d := &nodeDump{Mean: n.mean, Variance: n.variance, Count: n.count}
	if n.isLeaf() {
		d.Targets = n.targets
		return d
	}
	d.Feature = n.feature
	d.Threshold = n.threshold
	if n.catLeft != nil {
		d.NumCats = len(n.catLeft)
		for c, in := range n.catLeft {
			if in {
				d.CatLeft = append(d.CatLeft, c)
			}
		}
		if d.CatLeft == nil {
			d.CatLeft = []int{} // distinguish "categorical, empty" from numeric
		}
	}
	d.Left = dumpNode(n.left)
	d.Right = dumpNode(n.right)
	return d
}

func referenceJSON(t *refTree) ([]byte, error) {
	return json.Marshal(treeDump{Config: t.cfg, Root: dumpNode(t.root)})
}

// checkMatchesReference asserts that the flat tree tr encodes to exactly
// the bytes encoding/json writes for the oracle tree ref.
func checkMatchesReference(t *testing.T, name string, tr *Regressor, ref *refTree) {
	t.Helper()
	want, err := referenceJSON(ref)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := tr.AppendJSON([]byte("prefix"))
	if err != nil {
		t.Fatalf("%s: AppendJSON: %v", name, err)
	}
	if string(got[:6]) != "prefix" || string(got[6:]) != string(want) {
		t.Fatalf("%s: AppendJSON differs from encoding/json\n got %s\nwant %s", name, got[6:], want)
	}
	if m, err := tr.MarshalJSON(); err != nil || string(m) != string(want) {
		t.Fatalf("%s: MarshalJSON differs from encoding/json (err %v)", name, err)
	}
}

// TestAppendJSONMatchesEncodingJSON pins the direct appender over the
// flat arrays to the reflective encoder over the pointer oracle byte for
// byte: fitted numeric, categorical and quantile trees (the engine's
// flat tree against the reference builder's pointer tree), and
// hand-built trees at every float-format boundary and omitempty edge
// (zero feature, ±0 threshold, empty category list, empty target list).
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	r := rng.New(11)
	mixed := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 7},
		{Name: "y", Kind: space.FeatNumeric},
	}
	for rep := 0; rep < 20; rep++ {
		n := 20 + r.Intn(200)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{r.Float64()*1e-5 - 5e-6, float64(r.Intn(7)), r.Norm() * 1e22}
			y[i] = r.Norm() * math.Pow(10, float64(r.Intn(40)-20))
		}
		cfg := Config{MinSamplesLeaf: 1 + r.Intn(4), KeepTargets: rep%2 == 0, MinImpurityDecrease: float64(rep) * 1e-9}
		tr, err := Fit(X, y, mixed, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FitReference(X, y, mixed, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesReference(t, "fitted", tr, ref)
	}

	leaf := func(m, v float64, n int, ts ...float64) *refNode {
		return &refNode{mean: m, variance: v, count: n, targets: ts}
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-300,
		5e-324, 1e20, 1e21, -1e21, 123456789e13, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	for i, v := range floats {
		hand := &refTree{
			cfg: Config{MaxDepth: i, MinImpurityDecrease: v},
			root: &refNode{
				feature: i % 2, threshold: v, mean: v, variance: v, count: i,
				left: leaf(v, 0, 0),
				right: &refNode{
					feature: 1, catLeft: []bool{false, i%3 == 0, false}, mean: -v,
					left:  leaf(1, v, 2, v, -v, 0),
					right: leaf(v, v, 3, []float64{}...),
				},
			},
		}
		checkMatchesReference(t, "hand-built", flatten(hand, nil), hand)
	}
}

func TestAppendJSONRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ref := &refTree{root: &refNode{mean: bad}}
		if _, err := flatten(ref, nil).AppendJSON(nil); err == nil {
			t.Fatalf("leaf mean %v encoded", bad)
		}
		if _, err := referenceJSON(ref); err == nil {
			t.Fatalf("oracle encoded leaf mean %v", bad)
		}
		ref = &refTree{cfg: Config{MinImpurityDecrease: bad}, root: &refNode{}}
		if _, err := flatten(ref, nil).AppendJSON(nil); err == nil {
			t.Fatalf("config %v encoded", bad)
		}
	}
}

// TestUnmarshalValidatesAgainstSchema: a dump whose splits do not fit
// the feature schema would index past the feature vector (or misroute
// categories) at prediction time, so it is rejected at load.
func TestUnmarshalValidatesAgainstSchema(t *testing.T) {
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 3},
	}
	const kids = `"l":{"m":1,"v":0,"n":1},"r":{"m":2,"v":0,"n":1},"m":1,"v":0,"n":2`
	cases := map[string]string{
		"feature past schema":       `{"config":{},"root":{"f":7,"t":0.5,` + kids + `}}`,
		"negative feature":          `{"config":{},"root":{"f":-1,"t":0.5,` + kids + `}}`,
		"categorical on numeric":    `{"config":{},"root":{"f":0,"cl":[1],"nc":3,` + kids + `}}`,
		"bitmap width mismatch":     `{"config":{},"root":{"f":1,"cl":[1],"nc":4,` + kids + `}}`,
		"numeric on categorical":    `{"config":{},"root":{"f":1,"t":0.5,` + kids + `}}`,
		"negative leaf count":       `{"config":{},"root":{"m":1,"v":0,"n":-1}}`,
		"negative internal count":   `{"config":{},"root":{"f":0,"t":0.5,"l":{"m":1,"v":0,"n":1},"r":{"m":2,"v":0,"n":1},"m":1,"v":0,"n":-2}}`,
		"negative count deep below": `{"config":{},"root":{"f":0,"t":0.5,"l":{"m":1,"v":0,"n":1},"r":{"m":2,"v":0,"n":-1},"m":1,"v":0,"n":2}}`,
		"leaf count past int32":     `{"config":{},"root":{"m":1,"v":0,"n":2147483648}}`,
		"internal count past int32": `{"config":{},"root":{"f":0,"t":0.5,"l":{"m":1,"v":0,"n":1},"r":{"m":2,"v":0,"n":1},"m":1,"v":0,"n":4294967298}}`,
		"threshold on categorical":  `{"config":{},"root":{"f":1,"t":0.5,"cl":[1],"nc":3,` + kids + `}}`,
	}
	for name, s := range cases {
		if _, err := UnmarshalJSONWithFeatures([]byte(s), fs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, ok := range map[string]string{
		"categorical split": `{"config":{},"root":{"f":1,"cl":[0,2],"nc":3,` + kids + `}}`,
		"largest count":     `{"config":{},"root":{"m":1,"v":0,"n":2147483647}}`,
	} {
		if _, err := UnmarshalJSONWithFeatures([]byte(ok), fs); err != nil {
			t.Fatalf("well-formed %s rejected: %v", name, err)
		}
	}
}
