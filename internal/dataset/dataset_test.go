package dataset

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/rng"
	"repro/internal/space"
)

func TestBuildSizes(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), p, 700, 300, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pool) != 700 || len(ds.Test) != 300 {
		t.Fatalf("sizes %d/%d", len(ds.Pool), len(ds.Test))
	}
	if len(ds.TestY) != 300 || len(ds.TestTrue) != 300 {
		t.Fatal("missing test labels")
	}
}

func TestTestLabelsNearTruth(t *testing.T) {
	p, _ := bench.ByName("mvt")
	ds, err := Build(context.Background(), p, 100, 200, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Test {
		if ds.TestY[i] <= 0 {
			t.Fatalf("non-positive label %v", ds.TestY[i])
		}
		rel := math.Abs(ds.TestY[i]-ds.TestTrue[i]) / ds.TestTrue[i]
		if rel > 0.25 {
			t.Fatalf("label %d off truth by %.0f%%", i, rel*100)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	p, _ := bench.ByName("adi")
	a, errA := Build(context.Background(), p, 50, 50, rng.New(3))
	b, errB := Build(context.Background(), p, 50, 50, rng.New(3))
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a.Pool {
		if a.Pool[i].Key() != b.Pool[i].Key() {
			t.Fatal("pool not deterministic")
		}
	}
	for i := range a.TestY {
		if a.TestY[i] != b.TestY[i] {
			t.Fatal("test labels not deterministic")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p, _ := bench.ByName("kripke")
	ds, err := Build(context.Background(), p, 40, 25, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Space()
	d := sp.NumParams()
	for i := 0; i < d; i++ {
		if rows[0][i] != sp.Param(i).Name {
			t.Fatalf("header column %d is %q, want %q", i, rows[0][i], sp.Param(i).Name)
		}
	}
	if got := rows[0][d:]; len(got) != 2 || got[0] != "set" || got[1] != "y" {
		t.Fatalf("header ends %v, want [set y]", got)
	}
	rows = rows[1:]
	if len(rows) != len(ds.Pool)+len(ds.Test) {
		t.Fatalf("%d rows, want %d pool + %d test", len(rows), len(ds.Pool), len(ds.Test))
	}
	for i, row := range rows {
		want, set := space.Config(nil), "pool"
		if i < len(ds.Pool) {
			want = ds.Pool[i]
			if row[d+1] != "" {
				t.Fatalf("pool row %d has y %q", i, row[d+1])
			}
		} else {
			k := i - len(ds.Pool)
			want, set = ds.Test[k], "test"
			if y, err := strconv.ParseFloat(row[d+1], 64); err != nil || y != ds.TestY[k] {
				t.Fatalf("test row %d has y %q, want %v", k, row[d+1], ds.TestY[k])
			}
		}
		if row[d] != set {
			t.Fatalf("row %d is in set %q, want %q", i, row[d], set)
		}
		for j := 0; j < d; j++ {
			if row[j] != strconv.Itoa(want[j]) {
				t.Fatalf("row %d column %d is %q, want level %d", i, j, row[j], want[j])
			}
		}
	}
}

func TestTestXEncoding(t *testing.T) {
	p, _ := bench.ByName("hypre")
	ds, err := Build(context.Background(), p, 10, 5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	X := ds.TestX()
	if len(X) != 5 || len(X[0]) != p.Space().NumParams() {
		t.Fatalf("TestX shape %dx%d", len(X), len(X[0]))
	}
}
