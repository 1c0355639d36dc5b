package space

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := New(
		Num("tile", 1, 16, 32, 64),
		Cat("layout", "DGZ", "DZG", "GDZ"),
		Bool("vector"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		params []Parameter
	}{
		{"empty", nil},
		{"empty name", []Parameter{Num("", 1)}},
		{"dup name", []Parameter{Num("a", 1), Cat("a", "x")}},
		{"no levels", []Parameter{Num("a")}},
		{"descending", []Parameter{Num("a", 2, 1)}},
		{"dup level value", []Parameter{Num("a", 1, 1)}},
		{"dup category", []Parameter{Cat("a", "x", "x")}},
		{"bad kind", []Parameter{{Name: "a", Kind: Kind(99), Levels: []float64{1}}}},
	}
	for _, c := range cases {
		if _, err := New(c.params...); err == nil {
			t.Errorf("New(%s) succeeded, want error", c.name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad space did not panic")
		}
	}()
	MustNew()
}

func TestAccessors(t *testing.T) {
	s := testSpace(t)
	if s.NumParams() != 3 {
		t.Fatalf("NumParams = %d", s.NumParams())
	}
	p, ok := s.ByName("layout")
	if !ok || p.Kind != Categorical || p.NumLevels() != 3 {
		t.Fatalf("ByName(layout) = %+v, %v", p, ok)
	}
	if _, ok := s.ByName("missing"); ok {
		t.Fatal("ByName(missing) found something")
	}
	if s.IndexOf("vector") != 2 || s.IndexOf("nope") != -1 {
		t.Fatal("IndexOf wrong")
	}
}

func TestCardinality(t *testing.T) {
	s := testSpace(t)
	n, ok := s.Cardinality()
	if !ok || n != 4*3*2 {
		t.Fatalf("Cardinality = %d, %v", n, ok)
	}
	if got := s.LogCardinality(); math.Abs(got-math.Log10(24)) > 1e-12 {
		t.Fatalf("LogCardinality = %v", got)
	}
}

func TestCardinalityOverflow(t *testing.T) {
	// 40 parameters with 10 levels each = 10^40 > MaxInt64.
	params := make([]Parameter, 40)
	for i := range params {
		params[i] = NumRange("p"+string(rune('a'+i%26))+string(rune('0'+i/26)), 1, 10, 1)
	}
	s := MustNew(params...)
	if _, ok := s.Cardinality(); ok {
		t.Fatal("Cardinality should overflow")
	}
	if got := s.LogCardinality(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("LogCardinality = %v, want 40", got)
	}
}

func TestNumRange(t *testing.T) {
	p := NumRange("u", 1, 31, 1)
	if p.NumLevels() != 31 || p.Levels[0] != 1 || p.Levels[30] != 31 {
		t.Fatalf("NumRange = %+v", p)
	}
	p2 := NumRange("v", 0, 10, 4) // 0,4,8
	if p2.NumLevels() != 3 || p2.Levels[2] != 8 {
		t.Fatalf("NumRange step = %+v", p2)
	}
}

func TestValidate(t *testing.T) {
	s := testSpace(t)
	if err := s.Validate(Config{0, 2, 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := s.Validate(Config{0, 2}); err == nil {
		t.Fatal("short config accepted")
	}
	if err := s.Validate(Config{0, 3, 1}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := s.Validate(Config{-1, 0, 0}); err == nil {
		t.Fatal("negative level accepted")
	}
}

func TestValueAndEncode(t *testing.T) {
	s := testSpace(t)
	c := Config{2, 1, 1} // tile=32, layout=DZG, vector=true
	if got := s.Value(c, 0); got != 32 {
		t.Fatalf("Value(tile) = %v", got)
	}
	if got := s.Value(c, 1); got != 1 { // categorical encodes as index
		t.Fatalf("Value(layout) = %v", got)
	}
	if got := s.ValueByName(c, "vector"); got != 1 {
		t.Fatalf("ValueByName(vector) = %v", got)
	}
	if got := s.LevelByName(c, "tile"); got != 2 {
		t.Fatalf("LevelByName(tile) = %v", got)
	}
	x := s.Encode(c)
	want := []float64{32, 1, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Encode = %v", x)
		}
	}
}

func TestValueByNamePanics(t *testing.T) {
	s := testSpace(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown name")
		}
	}()
	s.ValueByName(Config{0, 0, 0}, "bogus")
}

func TestStringRendering(t *testing.T) {
	s := testSpace(t)
	got := s.String(Config{1, 0, 1})
	want := "tile=16 layout=DGZ vector=true"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if s.NameOf(Config{0, 2, 0}, 1) != "GDZ" {
		t.Fatal("NameOf wrong")
	}
}

func TestConfigKeyAndClone(t *testing.T) {
	c := Config{1, 2, 3}
	if c.Key() != "1,2,3" {
		t.Fatalf("Key = %q", c.Key())
	}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestSampleConfigValid(t *testing.T) {
	s := testSpace(t)
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if err := s.Validate(s.SampleConfig(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSampleConfigsCount(t *testing.T) {
	s := testSpace(t)
	cs := s.SampleConfigs(rng.New(2), 57)
	if len(cs) != 57 {
		t.Fatalf("got %d configs", len(cs))
	}
}

func TestSampleDistinct(t *testing.T) {
	s := testSpace(t)
	cs := s.SampleDistinct(rng.New(3), 10)
	seen := map[string]bool{}
	for _, c := range cs {
		k := c.Key()
		if seen[k] {
			t.Fatal("duplicate in SampleDistinct")
		}
		seen[k] = true
	}
	if len(cs) != 10 {
		t.Fatalf("got %d configs", len(cs))
	}
}

func TestSampleDistinctSmallSpaceEnumerates(t *testing.T) {
	s := MustNew(Bool("a"), Bool("b"))
	cs := s.SampleDistinct(rng.New(4), 100)
	if len(cs) != 4 {
		t.Fatalf("small space returned %d configs, want 4", len(cs))
	}
}

func TestEnumerate(t *testing.T) {
	s := MustNew(Num("x", 1, 2), Cat("y", "a", "b", "c"))
	all := s.Enumerate()
	if len(all) != 6 {
		t.Fatalf("Enumerate len = %d", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if err := s.Validate(c); err != nil {
			t.Fatal(err)
		}
		if seen[c.Key()] {
			t.Fatal("Enumerate produced duplicate")
		}
		seen[c.Key()] = true
	}
}

func TestFeatures(t *testing.T) {
	s := testSpace(t)
	fs := s.Features()
	if fs[0].Kind != FeatNumeric || fs[1].Kind != FeatCategorical || fs[2].Kind != FeatNumeric {
		t.Fatalf("Features = %+v", fs)
	}
	if fs[1].NumCategories != 3 {
		t.Fatalf("NumCategories = %d", fs[1].NumCategories)
	}
}

func TestEncodeAll(t *testing.T) {
	s := testSpace(t)
	cs := []Config{{0, 0, 0}, {3, 2, 1}}
	xs := s.EncodeAll(cs)
	if len(xs) != 2 || xs[1][0] != 64 || xs[1][1] != 2 || xs[1][2] != 1 {
		t.Fatalf("EncodeAll = %v", xs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := testSpace(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Space
	if err := json.Unmarshal(data, &s2); err != nil {
		t.Fatal(err)
	}
	if s2.NumParams() != s.NumParams() {
		t.Fatal("round trip lost parameters")
	}
	for i := 0; i < s.NumParams(); i++ {
		a, b := s.Param(i), s2.Param(i)
		if a.Name != b.Name || a.Kind != b.Kind || a.NumLevels() != b.NumLevels() {
			t.Fatalf("param %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestJSONRejectsBadKind(t *testing.T) {
	var s Space
	err := json.Unmarshal([]byte(`{"params":[{"name":"a","kind":"weird","levels":[1]}]}`), &s)
	if err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestSampleUniformityPerParameter(t *testing.T) {
	s := testSpace(t)
	r := rng.New(7)
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.SampleConfig(r)[0]]++
	}
	want := float64(n) / 4
	for lvl, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Fatalf("tile level %d count %d deviates from %v", lvl, c, want)
		}
	}
}

func TestEncodeDecodePropertyValid(t *testing.T) {
	// Property: every sampled config validates and encodes to a vector
	// whose numeric entries equal declared levels.
	s := testSpace(t)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := s.SampleConfig(r)
		if s.Validate(c) != nil {
			return false
		}
		x := s.Encode(c)
		tile := s.Param(0)
		found := false
		for _, lv := range tile.Levels {
			if x[0] == lv {
				found = true
			}
		}
		return found && x[1] >= 0 && x[1] < 3 && (x[2] == 0 || x[2] == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNumRangeStopsBeforeWrap: stepping past math.MaxInt would wrap the
// loop variable negative; NumRange stops at the last reachable level.
func TestNumRangeStopsBeforeWrap(t *testing.T) {
	for _, c := range []struct {
		lo, hi, step int
		want         []float64
	}{
		{1, 10, 3, []float64{1, 4, 7, 10}},
		{1, 9, 3, []float64{1, 4, 7}},
		{5, 4, 1, nil},
		{math.MaxInt - 10, math.MaxInt, 1 << 40, []float64{float64(math.MaxInt - 10)}},
		{math.MaxInt - 2<<20 - 5, math.MaxInt, 1 << 20, []float64{
			float64(math.MaxInt - 2<<20 - 5), float64(math.MaxInt - 1<<20 - 5), float64(math.MaxInt - 5)}},
	} {
		got := NumRange("x", c.lo, c.hi, c.step).Levels
		if len(got) != len(c.want) {
			t.Fatalf("NumRange(%d, %d, %d) = %v, want %v", c.lo, c.hi, c.step, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("NumRange(%d, %d, %d) = %v, want %v", c.lo, c.hi, c.step, got, c.want)
			}
		}
	}
}
