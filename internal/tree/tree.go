// Package tree implements CART regression trees for mixed
// numeric/categorical feature spaces.
//
// The trees are the base learner of the random forest in
// internal/forest. They minimise squared error: each split maximises the
// variance reduction of the target. Numeric features split on a
// threshold (x <= t); categorical features split on an optimal subset of
// categories, found by ordering categories by their mean target — the
// classical exact result for L2 regression (Breiman et al. 1984, ch. 9).
//
// Leaves retain the mean, the within-leaf variance and the sample count
// of their training targets so that the forest can compute the
// law-of-total-variance uncertainty of Hutter et al. 2014.
//
// FitRanked builds these trees with the presorted-column engine of
// presort.go: each numeric column of the training set is ranked once
// (RankColumns), every tree derives its column orders from the ranks
// with a counting sort of its sample, and the orders are stably
// partitioned down the recursion, so split search is a single
// allocation-free linear scan per node. The engine emits each node
// straight into the flat preorder arrays every prediction walks (see
// Regressor and flat.go). The per-node-sorting pointer-tree builder of
// reference_test.go is the test oracle; presort_test.go pins the engine
// to it bit for bit — same splits, thresholds, leaf statistics and RNG
// stream consumption — with property tests.
package tree

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/space"
)

// Config controls tree induction. The zero value means: unlimited depth,
// leaves of at least one sample, consider all features at every split.
type Config struct {
	// MaxDepth limits tree depth; 0 means unlimited. The root is depth 0.
	MaxDepth int

	// MinSamplesLeaf is the minimum number of training samples in each
	// child of a split; values < 1 are treated as 1.
	MinSamplesLeaf int

	// MinSamplesSplit is the minimum number of samples a node needs to be
	// considered for splitting; values < 2 are treated as 2.
	MinSamplesSplit int

	// MaxFeatures is the number of features examined per split (the
	// random-subspace "mtry"). 0 or anything >= the feature count means
	// all features. Constant features at a node do not count toward the
	// quota, matching scikit-learn's splitter semantics.
	MaxFeatures int

	// MinImpurityDecrease prunes splits whose total squared-error
	// reduction falls below this absolute threshold.
	MinImpurityDecrease float64

	// KeepTargets retains each leaf's sorted training targets, enabling
	// quantile prediction (Meinshausen's quantile regression forests) at
	// the cost of O(n) extra memory per tree.
	KeepTargets bool
}

func (c Config) minLeaf() int {
	if c.MinSamplesLeaf < 1 {
		return 1
	}
	return c.MinSamplesLeaf
}

func (c Config) minSplit() int {
	if c.MinSamplesSplit < 2 {
		return 2
	}
	return c.MinSamplesSplit
}

// Regressor is a fitted CART regression tree, held in flat preorder
// form: node fields live in contiguous arrays indexed by node id, so a
// node's left child immediately follows it (no left-child array is
// needed) and the hot upper levels of the tree share cache lines. The
// builder (FitRanked) and the decoder (UnmarshalJSONWithFeatures) write
// these arrays directly; every prediction, the wire form and the
// structural queries read them. See flat.go for the node layout and the
// walks.
type Regressor struct {
	features []space.Feature
	cfg      Config

	nodes []flatNode

	// mean, variance and count hold every node's training-target
	// statistics. Only leaves' are read for prediction; internal nodes
	// keep theirs because the wire form carries them on every node.
	mean, variance []float64
	count          []int32

	// targets[i] holds leaf i's sorted training targets. The slice is nil
	// unless the tree was fitted with Config.KeepTargets (or decoded from
	// a dump carrying targets); internal nodes' entries are always nil.
	targets [][]float64

	// catBits holds the packed category-membership bitmaps of all
	// categorical split nodes; each node's word offset and width live
	// in its key.
	catBits []uint64

	// depth is the maximum root-to-leaf depth (a lone leaf is 0). Leaf8T
	// walks exactly this many levels instead of testing per level
	// whether every lane settled: overshooting a shallow lane costs only
	// no-op self-loop steps, while the settled check costs a reduction
	// across all lanes on every level.
	depth int32

	// hasCat records whether any node splits categorically; Leaf8T only
	// takes the categorical-aware walk when needed.
	hasCat bool
}

// push appends a node at depth d carrying the statistics of its
// training samples and returns its id. The node is a leaf until split
// marks it, which happens once both of its subtrees are in place.
func (t *Regressor) push(mean, variance float64, count int32, d int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, flatNode{rdelta: -1})
	t.mean = append(t.mean, mean)
	t.variance = append(t.variance, variance)
	t.count = append(t.count, count)
	if t.targets != nil {
		t.targets = append(t.targets, nil)
	}
	if d > t.depth {
		t.depth = d
	}
	return id
}

// setTargets attaches sorted training targets to leaf id.
func (t *Regressor) setTargets(id int32, ts []float64) {
	if t.targets == nil {
		t.targets = make([][]float64, len(t.nodes))
	}
	t.targets[id] = ts
}

// newCatBitmap appends a zeroed ncat-bit category bitmap and returns the
// key a categorical split node stores to find it (see flatNode).
func (t *Regressor) newCatBitmap(ncat int) uint64 {
	off := len(t.catBits)
	for w := 0; w < (ncat+63)/64; w++ {
		t.catBits = append(t.catBits, 0)
	}
	t.hasCat = true
	return uint64(off)<<32 | uint64(uint32(ncat))
}

// setCat routes category cat left in the bitmap of key.
func (t *Regressor) setCat(key uint64, cat int) {
	t.catBits[int(key>>32)+cat>>6] |= 1 << (uint(cat) & 63)
}

// catLeft reports whether category code cat goes left under the bitmap
// of key: negative and out-of-range codes go right.
func (t *Regressor) catLeft(key uint64, cat int) bool {
	return cat >= 0 && cat < int(uint32(key)) &&
		t.catBits[int(key>>32)+cat>>6]>>(uint(cat)&63)&1 != 0
}

// setSplit turns node id into a split on feature f whose right child is
// node right (the left child is id+1). key is Key(threshold) for a
// numeric split and the bitmap key for a categorical one.
func (t *Regressor) setSplit(id int32, f int, key uint64, categorical bool, right int32) {
	feat := int32(f) * 8
	if categorical {
		feat |= catFlag
	}
	t.nodes[id] = flatNode{key: key, feat: feat, rdelta: right - id - 1}
}

// validateMatrix checks that X is a non-empty matrix with one column per
// feature and only finite values. Finiteness is what makes every column
// totally ordered by <, the premise of ranking (RankColumns) and of the
// builders' (value, position) sort: a NaN compares false against
// everything, so a column containing one has no well-defined order.
func validateMatrix(X [][]float64, features []space.Feature) error {
	if len(X) == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	d := len(features)
	if d == 0 {
		return fmt.Errorf("tree: no features")
	}
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("tree: row %d has %d columns, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("tree: row %d column %d (%s) is %v; feature values must be finite", i, j, features[j].Name, v)
			}
		}
	}
	return nil
}

// resolveMtry resolves cfg.MaxFeatures against d features.
func resolveMtry(d int, cfg Config, r *rng.RNG) (int, error) {
	mtry := cfg.MaxFeatures
	if mtry <= 0 || mtry > d {
		mtry = d
	}
	if mtry < d && r == nil {
		return 0, fmt.Errorf("tree: random subspace requires a generator")
	}
	return mtry, nil
}

// catStat accumulates per-category target statistics.
type catStat struct {
	cat   int
	count int
	sum   float64
	sumSq float64
}

// NodeBytes returns the byte footprint of the traversal-hot node array —
// what the forest's L2 tree-block budget is measured against.
func (t *Regressor) NodeBytes() int { return 16 * len(t.nodes) }

// Depth returns the maximum root-to-leaf depth (a lone root has depth 0)
// — the level count Leaf8T walks.
func (t *Regressor) Depth() int { return int(t.depth) }

// LeafMean returns the training mean of leaf node l.
func (t *Regressor) LeafMean(l int32) float64 { return t.mean[l] }

// LeafVariance returns the within-leaf variance of leaf node l.
func (t *Regressor) LeafVariance(l int32) float64 { return t.variance[l] }

// LeafTargets returns the sorted training targets of the leaf x falls
// into, or nil when the tree was fitted without Config.KeepTargets.
func (t *Regressor) LeafTargets(x []float64) []float64 {
	if t.targets == nil {
		return nil
	}
	return t.targets[t.leaf(x)]
}

// SplitCounts returns how many internal nodes split on each feature; the
// forest aggregates this into a cheap feature-usage importance.
func (t *Regressor) SplitCounts() []int {
	counts := make([]int, len(t.features))
	for _, nd := range t.nodes {
		if !nd.isLeaf() {
			counts[nd.feature()]++
		}
	}
	return counts
}
