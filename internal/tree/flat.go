package tree

import (
	"math"
	"math/bits"
)

// The flat node layout and its walks. A fitted Regressor's nodes live
// in preorder in one array of 16-byte flatNodes; traversal is an
// iterative index walk instead of pointer chasing through
// heap-scattered node structs.
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
// row is a single serial dependency chain. Keys order exactly like the
// floats they encode, so both walks route every row identically, and
// both route it as the split test x <= t of the pointer-tree oracle in
// reference_test.go (a -0 threshold keys and decodes as +0, which
// compares identically).

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
//     "done" branch. Node statistics live in the Regressor's side
//     arrays.
type flatNode struct {
	key    uint64
	feat   int32
	rdelta int32
}

func (n flatNode) isLeaf() bool { return n.rdelta < 0 }

// feature returns the split's feature id (numeric or categorical).
func (n flatNode) feature() int32 { return (n.feat &^ catFlag) >> 3 }

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

// Predict returns the tree's point prediction for feature vector x.
func (t *Regressor) Predict(x []float64) float64 {
	return t.mean[t.leaf(x)]
}

// PredictStats returns the mean, within-leaf variance and sample count of
// the leaf x falls into, as needed by the forest's law-of-total-variance
// uncertainty.
func (t *Regressor) PredictStats(x []float64) (mean, variance float64, count int) {
	l := t.leaf(x)
	return t.mean[l], t.variance[l], int(t.count[l])
}

// leaf walks one untransposed row to its leaf node id, comparing each
// visited feature with the threshold its node's key decodes to — the
// exact float64 threshold (a -0 threshold decodes as +0, which compares
// identically).
func (t *Regressor) leaf(x []float64) int32 {
	nodes := t.nodes
	i := 0
	for {
		nd := &nodes[i]
		switch {
		case nd.isLeaf():
			return int32(i)
		case nd.feat&catFlag != 0:
			i = int(t.stepCat(*nd, x[nd.feature()], int32(i)))
		case x[nd.feat>>3] <= keyValue(nd.key):
			i++
		default:
			i += 1 + int(nd.rdelta)
		}
	}
}

// stepCat resolves a categorical split for feature value v: the
// category is int(v), and negative or out-of-range codes go right.
func (t *Regressor) stepCat(nd flatNode, v float64, i int32) int32 {
	if t.catLeft(nd.key, int(v)) {
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
func (t *Regressor) Leaf8T(x []uint64) (l0, l1, l2, l3, l4, l5, l6, l7 int32) {
	if t.hasCat {
		return t.leaf8CatT(x)
	}
	nodes := t.nodes
	var i0, i1, i2, i3, i4, i5, i6, i7 int
	for lvl := t.depth; lvl > 0; lvl-- {
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
func (t *Regressor) leaf8CatT(x []uint64) (l0, l1, l2, l3, l4, l5, l6, l7 int32) {
	nodes := t.nodes
	var i0, i1, i2, i3, i4, i5, i6, i7 int
	for lvl := t.depth; lvl > 0; lvl-- {
		if nd := &nodes[i0]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat], 0)
			i0 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i0 = t.stepCatT(x, 0, i0)
		}
		if nd := &nodes[i1]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+1], 0)
			i1 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i1 = t.stepCatT(x, 1, i1)
		}
		if nd := &nodes[i2]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+2], 0)
			i2 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i2 = t.stepCatT(x, 2, i2)
		}
		if nd := &nodes[i3]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+3], 0)
			i3 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i3 = t.stepCatT(x, 3, i3)
		}
		if nd := &nodes[i4]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+4], 0)
			i4 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i4 = t.stepCatT(x, 4, i4)
		}
		if nd := &nodes[i5]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+5], 0)
			i5 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i5 = t.stepCatT(x, 5, i5)
		}
		if nd := &nodes[i6]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+6], 0)
			i6 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i6 = t.stepCatT(x, 6, i6)
		}
		if nd := &nodes[i7]; nd.feat&catFlag == 0 {
			_, r := bits.Sub64(nd.key, x[nd.feat+7], 0)
			i7 += 1 + int(nd.rdelta)&-int(r)
		} else {
			i7 = t.stepCatT(x, 7, i7)
		}
	}
	return int32(i0), int32(i1), int32(i2), int32(i3), int32(i4), int32(i5), int32(i6), int32(i7)
}

// stepCatT resolves categorical node i for lane k of a transposed group,
// on the value the lane's key encodes.
func (t *Regressor) stepCatT(x []uint64, k int32, i int) int {
	nd := t.nodes[i]
	return int(t.stepCat(nd, keyValue(x[nd.feat&^catFlag+k]), int32(i)))
}
