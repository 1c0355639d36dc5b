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
// Fit and FitRanked build these trees with the presorted-column engine
// of presort.go: each numeric column of the training set is ranked once
// (RankColumns), every tree derives its column orders from the ranks
// with a counting sort of its sample, and the orders are stably
// partitioned down the recursion, so split search is a single
// allocation-free linear scan per node. The per-node-sorting builder of
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

// node is one tree node; leaves have left == nil.
type node struct {
	// Split fields (internal nodes).
	feature   int
	threshold float64 // numeric: x <= threshold goes left
	catLeft   []bool  // categorical: category-membership of the left child
	left      *node
	right     *node

	// Leaf statistics (valid on every node; used for prediction only on
	// leaves).
	mean     float64
	variance float64
	count    int

	// targets holds the leaf's sorted training targets when
	// Config.KeepTargets is set; nil otherwise (and always nil on
	// internal nodes — only LeafTargets and the serializer read them).
	targets []float64
}

func (n *node) isLeaf() bool { return n.left == nil }

// Regressor is a fitted CART regression tree.
type Regressor struct {
	features []space.Feature
	root     *node
	cfg      Config
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

// Fit builds a regression tree on (X, y). X rows are feature vectors as
// produced by space.Space.Encode; features describes each column. r
// drives the random-subspace feature sampling and may be nil when
// cfg.MaxFeatures selects all features.
//
// Fit runs the presorted-column engine on the whole set with a
// throwaway workspace; call RankColumns once and FitRanked per tree with
// a reused Workspace when fitting many trees to row samples of one
// training set (the random forest does).
func Fit(X [][]float64, y []float64, features []space.Feature, cfg Config, r *rng.RNG) (*Regressor, error) {
	rk, err := RankColumns(X, features)
	if err != nil {
		return nil, err
	}
	picks := make([]int32, len(X))
	for i := range picks {
		picks[i] = int32(i)
	}
	return FitRanked(rk, y, picks, cfg, r, nil)
}

// split describes the best split found at a node.
type split struct {
	feature   int
	threshold float64
	catLeft   []bool
	gain      float64 // squared-error reduction
	valid     bool
}

// catStat accumulates per-category target statistics.
type catStat struct {
	cat   int
	count int
	sum   float64
	sumSq float64
}

// Predict returns the tree's point prediction for feature vector x.
func (t *Regressor) Predict(x []float64) float64 {
	m, _, _ := t.leaf(x)
	return m
}

// PredictWithStats returns the mean, within-leaf variance and sample
// count of the leaf x falls into, as needed by the forest's
// law-of-total-variance uncertainty.
func (t *Regressor) PredictWithStats(x []float64) (mean, variance float64, count int) {
	return t.leaf(x)
}

func (t *Regressor) leaf(x []float64) (float64, float64, int) {
	n := t.root
	for !n.isLeaf() {
		goLeft := false
		if n.catLeft != nil {
			c := int(x[n.feature])
			goLeft = c >= 0 && c < len(n.catLeft) && n.catLeft[c]
		} else {
			goLeft = x[n.feature] <= n.threshold
		}
		if goLeft {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.mean, n.variance, n.count
}

// LeafTargets returns the sorted training targets of the leaf x falls
// into, or nil when the tree was fitted without Config.KeepTargets.
func (t *Regressor) LeafTargets(x []float64) []float64 {
	n := t.root
	for !n.isLeaf() {
		goLeft := false
		if n.catLeft != nil {
			c := int(x[n.feature])
			goLeft = c >= 0 && c < len(n.catLeft) && n.catLeft[c]
		} else {
			goLeft = x[n.feature] <= n.threshold
		}
		if goLeft {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.targets
}

// NumLeaves returns the number of leaves in the tree.
func (t *Regressor) NumLeaves() int { return countLeaves(t.root) }

func countLeaves(n *node) int {
	if n.isLeaf() {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

// NumNodes returns the total node count.
func (t *Regressor) NumNodes() int { return countNodes(t.root) }

func countNodes(n *node) int {
	if n.isLeaf() {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// Depth returns the maximum root-to-leaf depth (a lone root has depth 0).
func (t *Regressor) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n.isLeaf() {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	return 1 + int(math.Max(float64(l), float64(r)))
}

// SplitCounts returns how many internal nodes split on each feature; the
// forest aggregates this into a cheap feature-usage importance.
func (t *Regressor) SplitCounts() []int {
	counts := make([]int, len(t.features))
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			return
		}
		counts[n.feature]++
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return counts
}
