package pool

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// The oracles below re-state internal/core's sort-based selection
// contract from scratch (sink NaNs, stable sort, tie-break by index,
// first-of-key distinct with duplicate fill) so the streaming reducers
// are checked against the specification, not against the code they
// replace.

func oracleSink(scores []float64, sink float64) []float64 {
	out := append([]float64(nil), scores...)
	for i, v := range out {
		if math.IsNaN(v) {
			out[i] = sink
		}
	}
	return out
}

func oracleOrder(scores []float64, bottom bool) []int {
	if bottom {
		scores = oracleSink(scores, math.Inf(1))
	} else {
		scores = oracleSink(scores, math.Inf(-1))
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if bottom {
			return scores[idx[a]] < scores[idx[b]]
		}
		return scores[idx[a]] > scores[idx[b]]
	})
	return idx
}

func oracleClamp(k, n int) int {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	return k
}

func oracleTopK(scores []float64, k int, bottom bool) []int {
	return oracleOrder(scores, bottom)[:oracleClamp(k, len(scores))]
}

func oracleTopKDistinct(scores []float64, xs [][]float64, k int) []int {
	k = oracleClamp(k, len(scores))
	idx := oracleOrder(scores, false)
	if k <= 1 {
		return idx[:k]
	}
	out := make([]int, 0, k)
	seen := map[string]bool{}
	var dups []int
	for _, i := range idx {
		if len(out) == k {
			return out
		}
		key := VectorKey(xs[i])
		if seen[key] {
			dups = append(dups, i)
			continue
		}
		seen[key] = true
		out = append(out, i)
	}
	for _, i := range dups {
		if len(out) == k {
			break
		}
		out = append(out, i)
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// specialScores draws from a palette rich in the cases that break naive
// reducers: NaN, ±Inf, signed zeros, and heavy ties.
func specialScores(r *rng.RNG, n int) []float64 {
	palette := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 1, 1, -1, 2.5,
	}
	out := make([]float64, n)
	for i := range out {
		switch r.Intn(3) {
		case 0:
			out[i] = palette[r.Intn(len(palette))]
		case 1:
			out[i] = float64(r.Intn(4)) // small ints: many exact ties
		default:
			out[i] = r.Float64()*20 - 10
		}
	}
	return out
}

// dupVectors draws feature vectors from a pool of ~n/3 distinct values so
// duplicate suppression is constantly exercised.
func dupVectors(r *rng.RNG, n int) [][]float64 {
	kinds := n/3 + 1
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{float64(r.Intn(kinds)), 0.5}
	}
	return out
}

func checkAgainstOracles(t *testing.T, scores []float64, xs [][]float64, k int, pushOrder []int) {
	t.Helper()
	top, bot, dis := NewTopK(k), NewBottomK(k), NewTopKDistinct(k)
	for _, i := range pushOrder {
		top.Push(i, scores[i], nil)
		bot.Push(i, scores[i], nil)
		dis.Push(i, scores[i], xs[i])
	}
	if got, want := top.Result(), oracleTopK(scores, k, false); !sameInts(got, want) {
		t.Fatalf("TopK(n=%d, k=%d): got %v, want %v\nscores=%v", len(scores), k, got, want, scores)
	}
	if got, want := bot.Result(), oracleTopK(scores, k, true); !sameInts(got, want) {
		t.Fatalf("BottomK(n=%d, k=%d): got %v, want %v\nscores=%v", len(scores), k, got, want, scores)
	}
	if got, want := dis.Result(), oracleTopKDistinct(scores, xs, k); !sameInts(got, want) {
		t.Fatalf("TopKDistinct(n=%d, k=%d): got %v, want %v\nscores=%v xs=%v", len(scores), k, got, want, scores, xs)
	}
}

// TestTopKMatchesOracle is the satellite property test: streaming
// reducers against the sort-based specification over random score
// vectors with NaNs, infinities, signed zeros, ties and duplicate
// vectors, for boundary k values and arbitrary push orders.
func TestTopKMatchesOracle(t *testing.T) {
	r := rng.New(20260807)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		scores := specialScores(r, n)
		xs := dupVectors(r, n)
		for _, k := range []int{-3, 0, 1, 2, n - 1, n, n + 5} {
			// Ascending, descending and shuffled push orders must agree.
			asc := make([]int, n)
			for i := range asc {
				asc[i] = i
			}
			desc := make([]int, n)
			for i := range desc {
				desc[i] = n - 1 - i
			}
			shuf := append([]int(nil), asc...)
			r.Shuffle(len(shuf), func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
			for _, order := range [][]int{asc, desc, shuf} {
				checkAgainstOracles(t, scores, xs, k, order)
			}
		}
	}
}

func TestTopKDegenerateInputs(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		scores []float64
	}{
		{"empty", nil},
		{"single", []float64{3}},
		{"all-nan", []float64{nan, nan, nan, nan}},
		{"all-equal", []float64{7, 7, 7, 7, 7}},
		{"all-neg-inf", []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}},
		{"nan-vs-neg-inf", []float64{nan, math.Inf(-1), nan, math.Inf(-1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.scores)
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = []float64{float64(i % 2)}
			}
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			for _, k := range []int{0, 1, n, n + 3} {
				checkAgainstOracles(t, tc.scores, xs, k, order)
			}
		})
	}
}

// TestTopKWorstIsBoundary pins the Worst() contract PBUS's streaming
// two-pass membership test depends on: for a full reducer it is the k-th
// order statistic with its ordinal, with NaN surfacing as the sunk value.
func TestTopKWorstIsBoundary(t *testing.T) {
	scores := []float64{5, 1, math.NaN(), 1, 9, 3}
	bot := NewBottomK(3)
	for i, s := range scores {
		bot.Push(i, s, nil)
	}
	s, ord, ok := bot.Worst()
	// Bottom-3 of {5,1,+Inf,1,9,3} is [1,3,5] → boundary is score 3, ord 5.
	if !ok || s != 3 || ord != 5 {
		t.Fatalf("Worst() = (%v, %d, %v), want (3, 5, true)", s, ord, ok)
	}
	allNaN := NewBottomK(2)
	allNaN.Push(0, math.NaN(), nil)
	allNaN.Push(1, math.NaN(), nil)
	s, ord, ok = allNaN.Worst()
	if !ok || !math.IsInf(s, 1) || ord != 1 {
		t.Fatalf("all-NaN Worst() = (%v, %d, %v), want (+Inf, 1, true)", s, ord, ok)
	}
}

// FuzzTopK lets the fuzzer hunt for score patterns where the streaming
// reducers and the sort-based specification diverge.
func FuzzTopK(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 3, uint16(7))
	f.Add([]byte{255, 255, 128, 0}, 1, uint16(0))
	f.Add([]byte{}, 0, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, k int, shufSeed uint16) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		if k < -1000 || k > 1000 {
			return
		}
		// Each byte is one candidate: low 4 bits pick the score from a
		// palette (with ties, NaN and ±Inf), high 4 bits the vector id.
		palette := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			1, 1, 2, 3, -1, -2, 0.5, 1e300, -1e300, 42, 42,
		}
		n := len(raw)
		scores := make([]float64, n)
		xs := make([][]float64, n)
		for i, b := range raw {
			scores[i] = palette[b&0x0f]
			xs[i] = []float64{float64(b >> 4)}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		r := rng.New(uint64(shufSeed))
		r.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		checkAgainstOracles(t, scores, xs, k, order)
	})
}

// TestTopKFloor: Floor reports nothing until the selection is full, then
// the k-th best score; a candidate strictly below it leaves the result
// unchanged, and one tying it at a smaller ordinal still enters.
func TestTopKFloor(t *testing.T) {
	if _, ok := NewTopKDistinct(0).Floor(); ok {
		t.Fatal("k = 0 reported a floor")
	}
	tk := NewTopKDistinct(2)
	tk.Push(5, 3, []float64{5})
	if _, ok := tk.Floor(); ok {
		t.Fatal("floor reported before the selection is full")
	}
	tk.Push(7, 1, []float64{7})
	if f, ok := tk.Floor(); !ok || f != 1 {
		t.Fatalf("Floor() = (%v, %v), want (1, true)", f, ok)
	}
	tk.Push(9, math.Nextafter(1, 0), []float64{9})
	tk.Push(8, 1, []float64{8})
	tk.Push(10, math.NaN(), []float64{10})
	if got := tk.Result(); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("candidates at or below the floor changed the result: %v", got)
	}
	tk.Push(6, 1, []float64{6}) // ties the floor at a smaller ordinal
	if got := tk.Result(); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("a floor tie at a smaller ordinal did not enter: %v", got)
	}
}
