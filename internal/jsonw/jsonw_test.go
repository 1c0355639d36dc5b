package jsonw

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, -1e-6, 9.999999999999999e-7,
		1e-7, 1.5e-10, 1e-100, 5e-324, math.SmallestNonzeroFloat64, 1e20, 1e21, 9.999999999999998e20,
		-1e21, 1e22, 1e100, math.MaxFloat64, 123456789.125, 2.5e-7}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		vals = append(vals, v, r.NormFloat64()*math.Pow(10, float64(r.Intn(60)-30)))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Float([]byte("x"), v)
		if err != nil || string(got) != "x"+string(want) {
			t.Fatalf("Float(%b) = %q, %v; want %q", v, got, err, "x"+string(want))
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(v)
		_, err := Float(nil, v)
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || err.Error() != want.Error() {
			t.Fatalf("Float(%v) error %v, want %v", v, err, want)
		}
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "plain", `quote " back \ slash`, "<script>&amp;</script>", "\b\f\n\r\t\x00\x01\x1f\x7f",
		"caf\u00e9 \u65e5\u672c", "line\u2028para\u2029end", "bad \xff utf8 \xc3", "\xed\xa0\x80 surrogate", "emoji \U0001F600"}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		b := make([]byte, r.Intn(24))
		for j := range b {
			if r.Intn(3) == 0 {
				b[j] = byte(r.Intn(256))
			} else {
				b[j] = byte(r.Intn(128))
			}
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("String(%q) = %s, want %s", s, got[1:], want)
		}
	}
}
