package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

func TestForestJSONRoundTrip(t *testing.T) {
	X, y := friedman(rng.New(1), 200)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 16}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumTrees() != 16 {
		t.Fatalf("reloaded %d trees", f2.NumTrees())
	}
	// Identical predictions and uncertainties on every training point.
	for i := range X {
		m1, s1 := f.PredictWithUncertainty(X[i])
		m2, s2 := f2.PredictWithUncertainty(X[i])
		if m1 != m2 || s1 != s2 {
			t.Fatalf("round trip changed prediction at %d: (%v,%v) vs (%v,%v)", i, m1, s1, m2, s2)
		}
	}
	if f.OOBRMSE() != f2.OOBRMSE() {
		t.Fatalf("OOB lost: %v vs %v", f.OOBRMSE(), f2.OOBRMSE())
	}
}

func TestForestJSONCategorical(t *testing.T) {
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 5},
	}
	r := rng.New(3)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		c := r.Intn(5)
		X[i] = []float64{r.Float64(), float64(c)}
		y[i] = float64(c%2)*10 + X[i][0]
	}
	f, err := Fit(X, y, fs, Config{NumTrees: 8}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var f2 Forest
	if err := json.Unmarshal(data, &f2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := []float64{r.Float64(), float64(r.Intn(5))}
		if f.Predict(probe) != f2.Predict(probe) {
			t.Fatal("categorical round trip changed predictions")
		}
	}
}

func TestForestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"trees":[]}`,
		`{"features":[{"Name":"x","Kind":0}],"trees":[]}`,
		`{"features":[{"Name":"x","Kind":0}],"trees":["not a tree"]}`,
		`{"features":[{"Name":"x","Kind":0}],"trees":[{"config":{},"root":null}]}`,
	}
	for i, s := range cases {
		if _, err := Load(strings.NewReader(s)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestForestNaNOOBOmitted(t *testing.T) {
	X, y := friedman(rng.New(5), 50)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 4, DisableBagging: true}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.OOBRMSE()) {
		t.Fatal("expected NaN OOB with bagging disabled")
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err) // NaN must not reach the JSON encoder
	}
	var f2 Forest
	if err := json.Unmarshal(data, &f2); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f2.OOBRMSE()) {
		t.Fatal("NaN OOB not restored")
	}
}

func TestReloadedForestUpdatable(t *testing.T) {
	// A reloaded forest must still support warm partial updates.
	X, y := friedman(rng.New(7), 100)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 8}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Update(X, y, rng.New(9)); err != nil {
		t.Fatal(err)
	}
}

// TestForestLoadRejectsNegativeCursor: a checkpoint whose rotation
// cursor is negative must fail to load rather than load a forest whose
// next Update indexes slot -1. Non-negative cursors load as before.
func TestForestLoadRejectsNegativeCursor(t *testing.T) {
	X, y := friedman(rng.New(10), 60)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 4}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := f.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	withCursor := func(c string) []byte {
		return append(append(enc[:len(enc)-1:len(enc)-1], `,"next_refresh":`+c...), '}')
	}
	var bad Forest
	if err := bad.UnmarshalJSON(withCursor("-1")); err == nil {
		t.Fatalf("negative next_refresh accepted (cursor %d)", bad.nextRefresh)
	}
	var good Forest
	if err := good.UnmarshalJSON(withCursor("3")); err != nil {
		t.Fatal(err)
	}
	if good.nextRefresh != 3 {
		t.Fatalf("cursor %d, want 3", good.nextRefresh)
	}
	if err := good.Update(X, y, rng.New(12)); err != nil {
		t.Fatal(err)
	}
}

// referenceForestJSON is the reflective encoder AppendJSON replaced,
// kept as its oracle: encoding/json over forestDump, each tree through
// its own marshaler (which internal/tree pins to encoding/json over its
// node dump).
func referenceForestJSON(f *Forest) ([]byte, error) {
	d := forestDump{Config: f.cfg, Features: f.features, NextRefresh: f.nextRefresh}
	if !math.IsNaN(f.oob) {
		v := f.oob
		d.OOB = &v
	}
	for _, t := range f.trees {
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		d.Trees = append(d.Trees, raw)
	}
	return json.Marshal(d)
}

// checkEncoding asserts the forest's three encode entry points equal the
// oracle byte for byte, and that a reload re-encodes to the same bytes.
func checkEncoding(t *testing.T, name string, f *Forest) {
	t.Helper()
	want, err := referenceForestJSON(f)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := f.AppendJSON([]byte("{}"))
	if err != nil {
		t.Fatalf("%s: AppendJSON: %v", name, err)
	}
	if !bytes.Equal(got[2:], want) || string(got[:2]) != "{}" {
		t.Fatalf("%s: AppendJSON differs from encoding/json:\n got %.300s\nwant %.300s", name, got[2:], want)
	}
	viaMarshal, err := json.Marshal(f)
	if err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("%s: json.Marshal differs from encoding/json (err %v)", name, err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: Save differs from encoding/json (err %v)", name, err)
	}
	back, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("%s: reload: %v", name, err)
	}
	again, err := back.AppendJSON(nil)
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("%s: encode(Load(encode(f))) != encode(f) (err %v)", name, err)
	}
}

// TestAppendJSONMatchesEncodingJSON pins the forest appender to the
// reflective encoder: numeric and categorical schemas (feature names
// needing escapes included), quantile leaves, a NaN OOB, and warm
// forests before and after their rotation cursor wraps.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	X, y := friedman(rng.New(21), 120)
	for _, cfg := range []Config{
		{NumTrees: 8},
		{NumTrees: 5, Tree: tree.Config{KeepTargets: true, MinSamplesLeaf: 3}, Uncertainty: TotalVariance},
		{NumTrees: 4, DisableBagging: true, Workers: 2, Tree: tree.Config{MaxDepth: 4, MinImpurityDecrease: 1e-7}},
	} {
		f, err := Fit(X, y, numFeatures(7), cfg, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		checkEncoding(t, "fitted", f)
		// Eleven quarter-ensemble updates walk the cursor past every slot
		// more than once; each boundary must round-trip.
		for u := 0; u < 11; u++ {
			if err := f.Update(X, y, rng.New(uint64(30+u))); err != nil {
				t.Fatal(err)
			}
			if f.nextRefresh < 0 || f.nextRefresh >= f.NumTrees() {
				t.Fatalf("rotation cursor %d outside [0, %d)", f.nextRefresh, f.NumTrees())
			}
			checkEncoding(t, "warm", f)
		}
	}

	fs := []space.Feature{
		{Name: "tile <i> & \"j\"", Kind: space.FeatNumeric},
		{Name: "unroll\t\u2028 caf\u00e9", Kind: space.FeatCategorical, NumCategories: 6},
	}
	r := rng.New(23)
	Xc := make([][]float64, 150)
	yc := make([]float64, len(Xc))
	for i := range Xc {
		c := r.Intn(6)
		Xc[i] = []float64{r.Float64() * 1e-6, float64(c)}
		yc[i] = float64(c%3)*1e22 + Xc[i][0]
	}
	f, err := Fit(Xc, yc, fs, Config{NumTrees: 6}, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, "categorical", f)
}

func TestAppendJSONRejectsNonFiniteOOB(t *testing.T) {
	X, y := friedman(rng.New(25), 40)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 2}, rng.New(26))
	if err != nil {
		t.Fatal(err)
	}
	f.oob = math.Inf(1)
	if _, err := f.AppendJSON(nil); err == nil {
		t.Fatal("infinite OOB encoded")
	}
	if err := f.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("Save wrote an infinite OOB")
	}
}

// probeRows builds feature vectors that reach every routing case a
// loaded forest can meet: in-range and out-of-range category codes,
// extreme and non-finite numeric values.
func probeRows(features []space.Feature) [][]float64 {
	numeric := []float64{0, -1, 0.5, 1, 1e300, -1e300, math.NaN(), math.Inf(1)}
	rows := make([][]float64, len(numeric))
	for i := range rows {
		row := make([]float64, len(features))
		for j, ft := range features {
			if ft.Kind == space.FeatCategorical {
				row[j] = []float64{0, 1, -1, float64(ft.NumCategories - 1), float64(ft.NumCategories), 2.5, math.NaN(), 1e300}[(i+j)%8]
			} else {
				row[j] = numeric[(i+j)%len(numeric)]
			}
		}
		rows[i] = row
	}
	return rows
}

func sameFloats(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// FuzzForestLoad feeds arbitrary bytes to Load, the path a resumed
// session takes over a checkpoint read from disk. Whatever loads must
// predict without panicking on any probe row, and must re-encode through
// AppendJSON to bytes that load into the same forest: same encoding,
// same predictions bit for bit. It must then take a partial Update on a
// small training set without panicking. The committed corpus
// (testdata/fuzz/FuzzForestLoad) holds small fitted forests of every
// shape plus the hostile splits the loader rejects.
func FuzzForestLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fst, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		rows := probeRows(fst.features)
		mu, sigma := fst.PredictBatch(rows)
		for _, x := range rows {
			fst.PredictWithUncertainty(x)
			_, _ = fst.PredictQuantile(x, 0.5)
		}
		enc, err := fst.AppendJSON(nil)
		if err != nil {
			t.Fatalf("loaded forest does not encode: %v", err)
		}
		back, err := Load(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded forest does not load: %v\n%s", err, enc)
		}
		enc2, err := back.AppendJSON(nil)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("reload encodes differently (err %v):\n%s\n%s", err, enc, enc2)
		}
		mu2, sigma2 := back.PredictBatch(rows)
		if !sameFloats(mu, mu2) || !sameFloats(sigma, sigma2) {
			t.Fatal("reload predicts differently")
		}
		// A resumed warm run's next step: a partial update, which may
		// fail on a hostile config but must not panic, and whose result
		// must still predict and encode.
		X, y := probeTraining(back.features)
		if err := back.Update(X, y, rng.New(1)); err != nil {
			return
		}
		back.PredictBatch(rows)
		if _, err := back.AppendJSON(nil); err != nil {
			t.Fatalf("updated forest does not encode: %v", err)
		}
	})
}

// probeTraining builds a small valid training set for features: finite
// numeric values and in-range category codes.
func probeTraining(features []space.Feature) ([][]float64, []float64) {
	const n = 12
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, len(features))
		for j, ft := range features {
			if ft.Kind == space.FeatCategorical && ft.NumCategories > 0 {
				row[j] = float64((i + j) % ft.NumCategories)
			} else {
				row[j] = float64((i*7+j*3)%5) - 1.5
			}
		}
		X[i] = row
		y[i] = float64(i%4) + 0.25*float64(i)
	}
	return X, y
}
