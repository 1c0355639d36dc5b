package pool

import (
	"math"
	"sort"
)

// VectorKey builds a hashable key for a feature vector: the raw IEEE-754
// bytes of every component. It is the duplicate-recognition key of batch
// selection; the streaming reducers and the sort-based reference
// selection their tests check them against agree on it byte for byte.
func VectorKey(x []float64) string {
	b := make([]byte, 0, 8*len(x))
	for _, v := range x {
		u := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(u>>uint(s)))
		}
	}
	return string(b)
}

// item is one retained candidate. s is the canonical score: NaN already
// sunk to -Inf, and negated for bottom-k selection, so that "larger s,
// then smaller ord" is the selection order for every reducer mode.
type item struct {
	ord int
	s   float64
}

// better reports whether a precedes b in selection order. With NaNs sunk
// this is a strict total order (ords are distinct), which is what makes
// every reducer's result independent of push order.
func better(a, b item) bool {
	if a.s != b.s {
		return a.s > b.s
	}
	return a.ord < b.ord
}

// TopK reduces a stream of (ord, score) candidates into the same selection
// the sort-based reference — score every candidate, stable-sort, slice;
// kept as the oracle in this package's and internal/core's tests —
// produces, in the same order, using O(k) memory:
//
//   - NaN scores sink to the losing end, ties break toward the smaller
//     ordinal (sort.SliceStable over ascending indices), and Result
//     lists the selection best-first.
//   - In distinct mode (NewTopKDistinct), duplicate feature vectors are
//     suppressed exactly as in the reference: the selection prefers the
//     best candidate of each distinct vector, and duplicates fill the
//     tail only when distinct vectors run out.
//
// Candidates may be pushed in any order: the retained state is a function
// of the candidate set only, so concurrent shard scoring needs no ordering
// barrier, just mutual exclusion.
type TopK struct {
	k        int
	neg      bool
	distinct bool

	// heap is the retained selection as a worst-at-root binary heap: in
	// plain mode the best min(k, n) candidates, in distinct mode the best
	// representative of each of the best min(k, D) distinct vectors.
	heap []item

	// keys and pos track, in distinct mode, which vector each heap slot
	// represents and where each vector's representative lives.
	keys []string
	pos  map[string]int

	// dups retains, while no representative has been evicted, the best
	// k-1 non-representative candidates — exactly the duplicate-fill
	// pool the reference falls back on when fewer than k distinct
	// vectors exist. The first eviction proves at least k+1 distinct
	// vectors, which makes duplicate fill unreachable, so the heap is
	// dropped and no longer maintained.
	dups    []item
	evicted bool
}

// NewTopK returns a reducer selecting the k largest-scoring candidates.
// k < 0 is treated as 0.
func NewTopK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{k: k}
}

// NewTopKDistinct returns a reducer selecting the k largest-scoring
// candidates with duplicate-vector suppression.
func NewTopKDistinct(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{k: k, distinct: true, pos: make(map[string]int, k+1)}
}

// NewBottomK returns a reducer selecting the k smallest-scoring candidates
// (bottomKByScore): scores are negated internally, which preserves the
// ordering contract including ±Inf and the +Inf NaN sink.
func NewBottomK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{k: k, neg: true}
}

// Push offers one candidate. x is the candidate's feature vector, used
// only by distinct mode to recognise duplicates (it may be nil otherwise);
// it is not retained, so callers may reuse the buffer. Ordinals must be
// unique across the stream.
func (t *TopK) Push(ord int, score float64, x []float64) {
	if t.k == 0 {
		return
	}
	s := score
	if math.IsNaN(s) {
		s = math.Inf(-1)
	} else if t.neg {
		s = -s
	}
	it := item{ord: ord, s: s}

	if len(t.heap) == t.k && !better(it, t.heap[0]) {
		// The selection is full and the candidate does not beat its worst
		// member, so it can neither enter nor displace. In distinct mode
		// a full heap also proves at least k distinct vectors, so the
		// duplicate-fill pool is unreachable and the candidate is
		// irrelevant even as a duplicate — its key is never computed,
		// which is what keeps huge-pool scans cheap past warm-up.
		return
	}

	if !t.distinct {
		if len(t.heap) < t.k {
			t.pushItem(it, "")
		} else {
			t.heap[0] = it
			t.siftDown(0)
		}
		return
	}

	key := VectorKey(x)
	if p, ok := t.pos[key]; ok {
		cur := t.heap[p]
		if better(it, cur) {
			// The candidate becomes its vector's representative; the old
			// representative joins the duplicate pool.
			t.heap[p] = it
			t.siftDown(p)
			t.pushDup(cur)
		} else {
			t.pushDup(it)
		}
		return
	}
	if len(t.heap) < t.k {
		t.pushItem(it, key)
		return
	}
	// A new vector beats the worst retained representative: evict it.
	// From here on at least k+1 distinct vectors exist, so duplicate fill
	// can never apply and its state is dropped for good.
	t.evicted = true
	t.dups = nil
	delete(t.pos, t.keys[0])
	t.heap[0] = it
	t.keys[0] = key
	t.pos[key] = 0
	t.siftDown(0)
}

// pushItem appends a new entry and restores the heap invariant.
func (t *TopK) pushItem(it item, key string) {
	t.heap = append(t.heap, it)
	if t.distinct {
		t.keys = append(t.keys, key)
		t.pos[key] = len(t.heap) - 1
	}
	t.siftUp(len(t.heap) - 1)
}

// pushDup retains a non-representative candidate in the bounded
// duplicate-fill pool (best k-1, worst-at-root heap).
func (t *TopK) pushDup(it item) {
	if t.evicted || t.k <= 1 {
		return
	}
	bound := t.k - 1
	if len(t.dups) < bound {
		t.dups = append(t.dups, it)
		// Sift up in the standalone dup heap.
		i := len(t.dups) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !better(t.dups[p], t.dups[i]) {
				break
			}
			t.dups[p], t.dups[i] = t.dups[i], t.dups[p]
			i = p
		}
		return
	}
	if !better(it, t.dups[0]) {
		return
	}
	t.dups[0] = it
	i := 0
	for {
		c := 2*i + 1
		if c >= len(t.dups) {
			break
		}
		if r := c + 1; r < len(t.dups) && better(t.dups[c], t.dups[r]) {
			c = r
		}
		if !better(t.dups[i], t.dups[c]) {
			break
		}
		t.dups[i], t.dups[c] = t.dups[c], t.dups[i]
		i = c
	}
}

// swap exchanges heap slots i and j, keeping the key index aligned.
func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	if t.distinct {
		t.keys[i], t.keys[j] = t.keys[j], t.keys[i]
		t.pos[t.keys[i]] = i
		t.pos[t.keys[j]] = j
	}
}

// siftUp moves slot i toward the root while it is worse than its parent
// (the root holds the worst retained entry).
func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !better(t.heap[p], t.heap[i]) {
			// parent is worse than (or is) the worst: invariant holds.
			break
		}
		t.swap(i, p)
		i = p
	}
}

// siftDown moves slot i toward the leaves while a child is worse than it.
func (t *TopK) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.heap) {
			return
		}
		if r := c + 1; r < len(t.heap) && better(t.heap[c], t.heap[r]) {
			c = r
		}
		if !better(t.heap[i], t.heap[c]) {
			return
		}
		t.swap(i, c)
		i = c
	}
}

// Worst returns the worst retained selection entry — for a full reducer,
// the k-th order statistic, i.e. the selection boundary — as the original
// (un-negated) score and its ordinal. ok is false while nothing is
// retained. A NaN score surfaces as its sunk value (-Inf for top-k, +Inf
// for bottom-k), matching what the reference sort compares.
func (t *TopK) Worst() (score float64, ord int, ok bool) {
	if len(t.heap) == 0 {
		return 0, 0, false
	}
	s := t.heap[0].s
	if t.neg {
		s = -s
	}
	return s, t.heap[0].ord, true
}

// Floor returns, once the selection is full, the score a candidate must
// beat to enter it. For a top-k reducer, a candidate scoring strictly
// below the floor (or NaN, or equal to it at a larger ordinal) is
// rejected by Push without any effect — in distinct mode too, since a
// full heap makes duplicate fill unreachable — so a caller may skip
// scoring candidates it can prove fall strictly below the floor. (For a
// bottom-k reducer the direction flips.) The floor is Worst's score; ok
// is false while fewer than k candidates are retained, and for k = 0.
func (t *TopK) Floor() (score float64, ok bool) {
	if t.k == 0 || len(t.heap) < t.k {
		return 0, false
	}
	s, _, _ := t.Worst()
	return s, true
}

// Result returns the selected ordinals, best first — byte-identical to
// what the sort-based reference returns for the same candidate set. It
// does not consume the reducer.
func (t *TopK) Result() []int {
	items := append([]item(nil), t.heap...)
	sort.Slice(items, func(a, b int) bool { return better(items[a], items[b]) })
	if t.distinct && len(items) < t.k && len(t.dups) > 0 {
		// Fewer than k distinct vectors: fill the tail with the best
		// duplicates, exactly like the reference's fallback. No
		// eviction can have happened (that requires > k distinct
		// vectors), so dups holds precisely the best non-representative
		// candidates seen.
		fill := append([]item(nil), t.dups...)
		sort.Slice(fill, func(a, b int) bool { return better(fill[a], fill[b]) })
		for _, d := range fill {
			if len(items) == t.k {
				break
			}
			items = append(items, d)
		}
	}
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ord
	}
	return out
}
