package pool

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

func testSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(
		space.Num("tile", 8, 16, 32, 64),
		space.Cat("layout", "DGZ", "DZG", "GDZ"),
		space.Bool("fuse"),
		space.NumRange("unroll", 1, 4, 1),
	)
}

// drain reads the whole source in bursts of the given size.
func drain(t *testing.T, src Source, burst int) []space.Config {
	t.Helper()
	d := src.Space().NumParams()
	buf := make([]space.Config, burst)
	for i := range buf {
		buf[i] = make(space.Config, d)
	}
	src.Reset()
	var out []space.Config
	for {
		n := src.Next(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			out = append(out, buf[i].Clone())
		}
	}
	return out
}

func assertSameConfigs(t *testing.T, label string, got, want []space.Config) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d configs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: config %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestSourcesShardInvariance: every source yields the identical sequence
// no matter how reads are chunked — the contract the sharded scan and the
// pool-equivalence gate stand on.
func TestSourcesShardInvariance(t *testing.T) {
	sp := testSpace(t)
	sources := map[string]Source{
		"uniform": NewUniform(sp, 42, 157),
		"slice":   NewSlice(sp, sp.SampleConfigs(rng.New(3), 83)),
	}
	for name, src := range sources {
		want := drain(t, src, 1)
		if len(want) != src.Len() {
			t.Fatalf("%s: drained %d configs, Len promises %d", name, len(want), src.Len())
		}
		for _, burst := range []int{2, 7, 64, src.Len(), src.Len() + 11} {
			assertSameConfigs(t, name, drain(t, src, burst), want)
		}
	}
}

// TestUniformMatchesSampleConfigs: the lazy uniform source is
// bit-identical to the materialized pool protocol it replaces.
func TestUniformMatchesSampleConfigs(t *testing.T) {
	sp := testSpace(t)
	const seed, n = 1234, 200
	want := sp.SampleConfigs(rng.New(seed), n)
	assertSameConfigs(t, "uniform", drain(t, NewUniform(sp, seed, n), 17), want)
}

func TestRandomAccessMatchesSequence(t *testing.T) {
	sp := testSpace(t)
	for name, src := range map[string]RandomAccess{
		"uniform": NewUniform(sp, 5, 29),
		"slice":   NewSlice(sp, sp.SampleConfigs(rng.New(9), 31)),
	} {
		want := drain(t, src, 10)
		got := make(space.Config, sp.NumParams())
		for i := range want {
			src.At(i, got)
			if got.Key() != want[i].Key() {
				t.Fatalf("%s: At(%d) = %v, sequence has %v", name, i, got, want[i])
			}
		}
	}
}

// TestUniformAtMatchesStream: Uniform's checkpoint replay returns the
// streamed candidate at every index — before any scan (every checkpoint
// recorded by At itself), past the last checkpoint a partial read
// recorded, and after a Reset — for reads in shards of 1, 7 and 1024,
// and At never disturbs the stream position. Pool sizes cover one
// checkpoint per candidate (n <= maxCheckpoints), a ragged last
// interval and a length that is a multiple of the interval.
func TestUniformAtMatchesStream(t *testing.T) {
	sp := testSpace(t)
	const seed = 4242
	got := make(space.Config, sp.NumParams())
	checkAt := func(label string, u *Uniform, want []space.Config) {
		t.Helper()
		// Descending first, so the top index is fetched with only the
		// checkpoints recorded so far.
		for i := len(want) - 1; i >= 0; i-- {
			u.At(i, got)
			if got.Key() != want[i].Key() {
				t.Fatalf("%s: At(%d) = %v, stream has %v", label, i, got, want[i])
			}
		}
		for i := range want {
			u.At(i, got)
			if got.Key() != want[i].Key() {
				t.Fatalf("%s: second pass At(%d) = %v, stream has %v", label, i, got, want[i])
			}
		}
	}
	for _, n := range []int{1, 200, 3001, 3072} {
		want := sp.SampleConfigs(rng.New(seed), n)
		for _, shard := range []int{1, 7, 1024} {
			u := NewUniform(sp, seed, n)
			checkAt("before any scan", u, want)
			assertSameConfigs(t, "stream after At", drain(t, u, shard), want)

			// Past the last checkpoint: stream a third of the pool, fetch
			// everything, then finish the stream where it stopped.
			u = NewUniform(sp, seed, n)
			buf := make([]space.Config, shard)
			for i := range buf {
				buf[i] = make(space.Config, sp.NumParams())
			}
			var streamed []space.Config
			for len(streamed) < n/3 {
				k := u.Next(buf)
				for _, c := range buf[:k] {
					streamed = append(streamed, c.Clone())
				}
			}
			checkAt("past the last checkpoint", u, want)
			for k := u.Next(buf); k > 0; k = u.Next(buf) {
				for _, c := range buf[:k] {
					streamed = append(streamed, c.Clone())
				}
			}
			assertSameConfigs(t, "stream interleaved with At", streamed, want)

			u.Reset()
			checkAt("after Reset", u, want)
			assertSameConfigs(t, "stream after Reset", drain(t, u, shard), want)
			if len(u.ckpts) > maxCheckpoints {
				t.Fatalf("n %d: %d checkpoints, cap %d", n, len(u.ckpts), maxCheckpoints)
			}
		}
	}
}

func TestFingerprintsDistinguishSources(t *testing.T) {
	sp := testSpace(t)
	prints := map[string]uint64{
		"uniform-1-100": NewUniform(sp, 1, 100).Fingerprint(),
		"uniform-2-100": NewUniform(sp, 2, 100).Fingerprint(),
		"uniform-1-101": NewUniform(sp, 1, 101).Fingerprint(),
		"slice-1-100":   NewSlice(sp, sp.SampleConfigs(rng.New(1), 100)).Fingerprint(),
	}
	seen := map[uint64]string{}
	for name, h := range prints {
		if prev, dup := seen[h]; dup {
			t.Fatalf("fingerprint collision: %s and %s both %#x", name, prev, h)
		}
		seen[h] = name
	}
	// Stable across construction and draining.
	u := NewUniform(sp, 1, 100)
	before := u.Fingerprint()
	drain(t, u, 7)
	if u.Fingerprint() != before {
		t.Fatal("fingerprint changed after draining")
	}
	if before != NewUniform(sp, 1, 100).Fingerprint() {
		t.Fatal("fingerprint differs between identical sources")
	}
}
