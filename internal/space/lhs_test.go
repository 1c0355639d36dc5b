package space

import (
	"testing"

	"repro/internal/rng"
)

func TestLHSValidAndCount(t *testing.T) {
	s := testSpace(t)
	r := rng.New(1)
	cs := s.SampleLHS(r, 37)
	if len(cs) != 37 {
		t.Fatalf("got %d configs", len(cs))
	}
	for _, c := range cs {
		if err := s.Validate(c); err != nil {
			t.Fatal(err)
		}
	}
	if s.SampleLHS(r, 0) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestLHSMarginalBalance(t *testing.T) {
	// With n a multiple of every level count, every level appears
	// exactly n/L times in each dimension.
	s := MustNew(
		Num("a", 1, 2, 3, 4),
		Cat("b", "x", "y", "z"),
	)
	n := 24
	cs := s.SampleLHS(rng.New(2), n)
	for j := 0; j < s.NumParams(); j++ {
		counts := make([]int, s.Param(j).NumLevels())
		for _, c := range cs {
			counts[c[j]]++
		}
		want := n / s.Param(j).NumLevels()
		for lvl, got := range counts {
			if got != want {
				t.Fatalf("param %d level %d: %d draws, want %d", j, lvl, got, want)
			}
		}
	}
}

func TestLHSCoversAllLevelsWhenPossible(t *testing.T) {
	// Uniform sampling of 31 levels with n=31 misses many levels; LHS
	// must hit every one.
	s := MustNew(NumRange("u", 1, 31, 1))
	cs := s.SampleLHS(rng.New(3), 31)
	seen := make([]bool, 31)
	for _, c := range cs {
		seen[c[0]] = true
	}
	for lvl, ok := range seen {
		if !ok {
			t.Fatalf("level %d never drawn", lvl)
		}
	}
}

func TestLHSFewerSamplesThanLevels(t *testing.T) {
	s := MustNew(NumRange("u", 1, 31, 1))
	cs := s.SampleLHS(rng.New(4), 5)
	// 5 samples over 31 levels: all distinct strata.
	seen := map[int]bool{}
	for _, c := range cs {
		if seen[c[0]] {
			t.Fatalf("stratified draw duplicated level %d", c[0])
		}
		seen[c[0]] = true
	}
}

func TestLHSDeterministic(t *testing.T) {
	s := testSpace(t)
	a := s.SampleLHS(rng.New(5), 20)
	b := s.SampleLHS(rng.New(5), 20)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("LHS not deterministic")
		}
	}
}

func TestLHSShufflesBetweenDimensions(t *testing.T) {
	// The per-dimension shuffles must decorrelate columns: with two
	// identical parameter definitions the two columns should not be
	// equal everywhere.
	s := MustNew(NumRange("a", 0, 9, 1), NumRange("b", 0, 9, 1))
	cs := s.SampleLHS(rng.New(6), 10)
	same := 0
	for _, c := range cs {
		if c[0] == c[1] {
			same++
		}
	}
	if same == 10 {
		t.Fatal("columns perfectly correlated; shuffle missing")
	}
}
