package tree

import (
	"math"
	"math/bits"
)

// Compiled is the flat form of a fitted Regressor: node fields live in
// contiguous arrays indexed by node id, and traversal is an iterative
// index walk instead of pointer chasing through heap-scattered node
// structs. Nodes are laid out in preorder, so a node's left child
// immediately follows it (no left-child array is needed) and the hot
// upper levels of the tree share cache lines.
//
// Numeric splits store their threshold as a *key*: Key maps every
// float64 to a uint64 with the same ordering, so the split test x <= t
// becomes the integer test Key(x) <= Key(t) with no rounding (see Key).
// Integer compares let the batch walk run branchless — the borrow of
// one subtraction is the left/right lane mask — and the multi-lane walk
// (Leaf8T) overlaps eight rows' independent traversal chains in the
// out-of-order core. The scalar PredictStats walks the same node array
// with the float compare itself, decoding each visited threshold from
// its key: for one row a branchy walk is faster, because speculation
// runs ahead down the predicted path, while a branchless walk of one
// row is a single serial dependency chain.
//
// Compile preserves prediction semantics exactly: for every input x,
// Compiled.PredictStats and the Leaf8T walk return bit-identical
// results to Regressor.PredictWithStats. The pointer-based Regressor
// remains the structural source of truth (serialization, quantile
// targets, depth and split-count queries); Compiled is the inference
// engine the forest runs batch scoring on.

// catFlag is set on flatNode.feat entries of categorical split nodes,
// so the numeric hot path never touches the categorical bitmap.
const catFlag int32 = 1 << 30

// flatNode packs the fields the traversal loop reads into 16 bytes, so
// each step costs one node load and at most one cache line:
//
//   - numeric split: key is Key(threshold), feat
//     the pre-scaled feature offset f*8 — the index of lane 0's key of
//     feature f in an 8-row transposed group, so the lane offset folds
//     into the load's constant displacement — and rdelta the right
//     child's id minus the node's own id minus one (the left child is
//     implicitly the next node in preorder). The step is
//     i += 1 + rdelta&mask, mask all-ones when Key(x) > key.
//   - categorical split: feat carries catFlag, key packs (catBits word
//     offset << 32 | number of categories).
//   - leaf: key 0, feat 0, rdelta -1. Every value keys above 0, so the
//     step always takes the "right" mask and i+1-1 loops on itself:
//     the lane walk steps every lane unconditionally, with no per-lane
//     "done" branch. Leaf statistics live in the side arrays.
type flatNode struct {
	key    uint64
	feat   int32
	rdelta int32
}

func (n flatNode) isLeaf() bool { return n.rdelta < 0 }

// feature returns the split's feature id (numeric or categorical).
func (n flatNode) feature() int32 { return (n.feat &^ catFlag) >> 3 }

type Compiled struct {
	nodes []flatNode

	// mean, variance and count hold the leaf statistics, indexed by node
	// id (zero on internal nodes).
	mean, variance []float64
	count          []int32

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

// Key maps a float64 to a uint64 sort key: for every float64 x and
// every non-NaN t, x <= t exactly when Key(x) <= Key(t). Non-negative
// values set the sign bit (already ascending by bit pattern), negative
// values flip every bit (reversing their descending order and landing
// below every non-negative key). Both zeros take the +0 key, so
// -0 <= +0 <= -0 survives the mapping. NaN of either sign keys to
// MaxUint64 — above every real key, so a NaN feature goes right at
// every numeric split, exactly as NaN <= t is false. The smallest key
// of any value is Key(-Inf) = 0x000FFFFFFFFFFFFF > 0.
func Key(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyValue inverts Key: the float64 a key encodes (+0 for the key of
// either zero, a NaN for MaxUint64 and for the leaf key 0).
func keyValue(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// KeyRowStride keys a float64 feature row at a fixed stride:
// dst[f*stride] = Key(x[f]). Stride 8 interleaves eight rows
// feature-major into the transposed group Leaf8T walks.
func KeyRowStride(x []float64, dst []uint64, stride int) {
	for f, v := range x {
		dst[f*stride] = Key(v)
	}
}

// Compile flattens the tree into its contiguous-array form.
func (t *Regressor) Compile() *Compiled {
	n := countNodes(t.root)
	c := &Compiled{
		nodes:    make([]flatNode, 0, n),
		mean:     make([]float64, 0, n),
		variance: make([]float64, 0, n),
		count:    make([]int32, 0, n),
	}
	c.emit(t.root, 0)
	return c
}

// emit appends nd (at depth d) and its subtree in preorder and returns
// nd's node id.
func (c *Compiled) emit(nd *node, d int32) int32 {
	id := int32(len(c.nodes))
	c.nodes = append(c.nodes, flatNode{rdelta: -1})
	if nd.isLeaf() {
		c.mean = append(c.mean, nd.mean)
		c.variance = append(c.variance, nd.variance)
		c.count = append(c.count, int32(nd.count))
		if d > c.depth {
			c.depth = d
		}
		return id
	}
	c.mean = append(c.mean, 0)
	c.variance = append(c.variance, 0)
	c.count = append(c.count, 0)
	feat := int32(nd.feature) * 8
	key := Key(nd.threshold)
	if nd.catLeft != nil {
		feat |= catFlag
		c.hasCat = true
		ncat := len(nd.catLeft)
		off := len(c.catBits)
		words := (ncat + 63) / 64
		for w := 0; w < words; w++ {
			c.catBits = append(c.catBits, 0)
		}
		for cat, in := range nd.catLeft {
			if in {
				c.catBits[off+cat>>6] |= 1 << (uint(cat) & 63)
			}
		}
		key = uint64(off)<<32 | uint64(uint32(ncat))
	}
	c.emit(nd.left, d+1) // preorder invariant: the left child is id+1
	right := c.emit(nd.right, d+1)
	c.nodes[id] = flatNode{key: key, feat: feat, rdelta: right - id - 1}
	return id
}

// NumNodes returns the total node count.
func (c *Compiled) NumNodes() int { return len(c.nodes) }

// NodeBytes returns the byte footprint of the traversal-hot node array —
// what the forest's L2 tree-block budget is measured against.
func (c *Compiled) NodeBytes() int { return 16 * len(c.nodes) }

// Depth returns the maximum root-to-leaf depth — the level count Leaf8T
// walks.
func (c *Compiled) Depth() int { return int(c.depth) }

// LeafMean returns the training mean of leaf node l.
func (c *Compiled) LeafMean(l int32) float64 { return c.mean[l] }

// LeafVariance returns the within-leaf variance of leaf node l.
func (c *Compiled) LeafVariance(l int32) float64 { return c.variance[l] }

// Predict returns the tree's point prediction for feature vector x.
func (c *Compiled) Predict(x []float64) float64 {
	return c.mean[c.leaf(x)]
}

// PredictStats returns the mean, within-leaf variance and sample count of
// the leaf x falls into. It is the flat-engine equivalent of
// Regressor.PredictWithStats and returns bit-identical values.
func (c *Compiled) PredictStats(x []float64) (mean, variance float64, count int) {
	l := c.leaf(x)
	return c.mean[l], c.variance[l], int(c.count[l])
}

// leaf walks one untransposed row to its leaf node id, comparing each
// visited feature with the threshold its node's key decodes to — the
// exact float64 threshold (a -0 threshold decodes as +0, which compares
// identically), so the routing is the pointer tree's x <= t.
func (c *Compiled) leaf(x []float64) int32 {
	nodes := c.nodes
	i := 0
	for {
		nd := &nodes[i]
		switch {
		case nd.isLeaf():
			return int32(i)
		case nd.feat&catFlag != 0:
			i = int(c.stepCat(*nd, x[nd.feature()], int32(i)))
		case x[nd.feat>>3] <= keyValue(nd.key):
			i++
		default:
			i += 1 + int(nd.rdelta)
		}
	}
}

// stepCat resolves a categorical split for feature value v. The rule is
// the pointer engine's: the category is int(v), and negative or
// out-of-range codes go right.
func (c *Compiled) stepCat(nd flatNode, v float64, i int32) int32 {
	cat := int(v)
	if cat >= 0 && cat < int(uint32(nd.key)) &&
		c.catBits[int(nd.key>>32)+cat>>6]>>(uint(cat)&63)&1 != 0 {
		return i + 1
	}
	return i + 1 + nd.rdelta
}

// Leaf8T is the eight-lane walk over a *transposed* key group: the key
// of feature f of lane k lives at x[f*8+k] (len(x) >= 8*d; see
// KeyRowStride). It returns the eight lanes' leaf node ids. The
// feature-major layout makes every lane's offset a constant folded into
// the load's displacement. Eight independent node-load → key-load →
// borrow-mask chains per level keep the load and ALU ports busy; the
// loop body is written lane after lane, not load-all-then-step, so each
// lane's node fields die before the next lane's load and the eight lane
// indices stay in registers (loading all eight 16-byte nodes up front
// spills them — ~30% slower). The walk runs for the tree's full
// depth — lanes that reach their leaf early self-loop for free (see
// flatNode). Trees with categorical splits take leaf8CatT.
//
// The routing equals PredictStats for every row: keys order exactly
// like the floats they encode, so each lane's path is the scalar path.
func (c *Compiled) Leaf8T(x []uint64) (l0, l1, l2, l3, l4, l5, l6, l7 int32) {
	if c.hasCat {
		return c.leaf8CatT(x)
	}
	nodes := c.nodes
	var i0, i1, i2, i3, i4, i5, i6, i7 int
	for lvl := c.depth; lvl > 0; lvl-- {
		nd := &nodes[i0]
		_, r := bits.Sub64(nd.key, x[nd.feat], 0)
		i0 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i1]
		_, r = bits.Sub64(nd.key, x[nd.feat+1], 0)
		i1 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i2]
		_, r = bits.Sub64(nd.key, x[nd.feat+2], 0)
		i2 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i3]
		_, r = bits.Sub64(nd.key, x[nd.feat+3], 0)
		i3 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i4]
		_, r = bits.Sub64(nd.key, x[nd.feat+4], 0)
		i4 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i5]
		_, r = bits.Sub64(nd.key, x[nd.feat+5], 0)
		i5 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i6]
		_, r = bits.Sub64(nd.key, x[nd.feat+6], 0)
		i6 += 1 + int(nd.rdelta)&-int(r)
		nd = &nodes[i7]
		_, r = bits.Sub64(nd.key, x[nd.feat+7], 0)
		i7 += 1 + int(nd.rdelta)&-int(r)
	}
	return int32(i0), int32(i1), int32(i2), int32(i3), int32(i4), int32(i5), int32(i6), int32(i7)
}

// leaf8CatT is Leaf8T for trees containing categorical splits: numeric
// nodes keep the inline borrow-mask step, categorical nodes (a few per
// tree at most, so the kind test predicts well) detour through the
// out-of-line bitmap test. Like Leaf8T the walk runs for the tree's full
// depth.
func (c *Compiled) leaf8CatT(x []uint64) (l0, l1, l2, l3, l4, l5, l6, l7 int32) {
	nodes := c.nodes
	var i0, i1, i2, i3, i4, i5, i6, i7 int
	for lvl := c.depth; lvl > 0; lvl-- {
		if nd := &nodes[i0]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat], 0)
			i0 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i0 = c.stepCatT(x, 0, i0)
		}
		if nd := &nodes[i1]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+1], 0)
			i1 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i1 = c.stepCatT(x, 1, i1)
		}
		if nd := &nodes[i2]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+2], 0)
			i2 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i2 = c.stepCatT(x, 2, i2)
		}
		if nd := &nodes[i3]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+3], 0)
			i3 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i3 = c.stepCatT(x, 3, i3)
		}
		if nd := &nodes[i4]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+4], 0)
			i4 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i4 = c.stepCatT(x, 4, i4)
		}
		if nd := &nodes[i5]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+5], 0)
			i5 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i5 = c.stepCatT(x, 5, i5)
		}
		if nd := &nodes[i6]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+6], 0)
			i6 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i6 = c.stepCatT(x, 6, i6)
		}
		if nd := &nodes[i7]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+7], 0)
			i7 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i7 = c.stepCatT(x, 7, i7)
		}
	}
	return int32(i0), int32(i1), int32(i2), int32(i3), int32(i4), int32(i5), int32(i6), int32(i7)
}

// stepCatT resolves categorical node i for lane k of a transposed group,
// on the value the lane's key encodes.
func (c *Compiled) stepCatT(x []uint64, k int32, i int) int {
	nd := c.nodes[i]
	return int(c.stepCat(nd, keyValue(x[nd.feat&^catFlag+k]), int32(i)))
}
