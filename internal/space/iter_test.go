package space

import (
	"testing"

	"repro/internal/rng"
)

func iterTestSpace(t *testing.T) *Space {
	t.Helper()
	return MustNew(
		Num("tile", 8, 16, 32, 64),
		Cat("layout", "DGZ", "DZG", "GDZ"),
		Bool("fuse"),
		NumRange("unroll", 1, 4, 1),
	)
}

func TestIteratorMatchesEnumerate(t *testing.T) {
	sp := iterTestSpace(t)
	want := sp.Enumerate()
	it := sp.Iter()
	cur := make(Config, sp.NumParams())
	for i := 0; it.Next(cur); i++ {
		if i >= len(want) {
			t.Fatalf("iterator produced more than %d configs", len(want))
		}
		if cur.Key() != want[i].Key() {
			t.Fatalf("config %d: iterator %v, enumerate %v", i, cur, want[i])
		}
	}
	if it.Next(cur) {
		t.Fatal("exhausted iterator produced another config")
	}
}

// TestIteratorShardInvariance is the lazy-enumeration half of the
// shard-size-invariance contract: reading the stream in bursts of any
// size yields the identical sequence as one config at a time.
func TestIteratorShardInvariance(t *testing.T) {
	sp := iterTestSpace(t)
	want := sp.Enumerate()
	for _, burst := range []int{1, 2, 7, 64, len(want), len(want) + 13} {
		it := sp.Iter()
		got := 0
		buf := make([]Config, burst)
		for i := range buf {
			buf[i] = make(Config, sp.NumParams())
		}
		for {
			k := 0
			for k < burst && it.Next(buf[k]) {
				k++
			}
			for i := 0; i < k; i++ {
				if buf[i].Key() != want[got].Key() {
					t.Fatalf("burst %d: config %d: got %v, want %v", burst, got, buf[i], want[got])
				}
				got++
			}
			if k < burst {
				break
			}
		}
		if got != len(want) {
			t.Fatalf("burst %d: produced %d configs, want %d", burst, got, len(want))
		}
	}
}

// TestSampleLHSColumnsReconstruction: the precomputed columns consume
// the generator identically to SampleLHS, so reading them in any
// chunking reproduces the materialized draw bit for bit.
func TestSampleLHSColumnsReconstruction(t *testing.T) {
	sp := iterTestSpace(t)
	const n = 37
	want := sp.SampleLHS(rng.New(99), n)
	cols := sp.SampleLHSColumns(rng.New(99), n)
	for i := 0; i < n; i++ {
		for j := 0; j < sp.NumParams(); j++ {
			if cols[j][i] != want[i][j] {
				t.Fatalf("sample %d param %d: columns give %d, SampleLHS gave %d", i, j, cols[j][i], want[i][j])
			}
		}
	}
	// And the generators end at the same stream position.
	ra, rb := rng.New(99), rng.New(99)
	sp.SampleLHS(ra, n)
	sp.SampleLHSColumns(rb, n)
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("SampleLHS and SampleLHSColumns consume the generator differently")
	}
}
