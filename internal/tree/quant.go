package tree

import (
	"fmt"
	"math"
)

// CompiledQ is the float32-quantized form of a Compiled tree: each node
// packed into one 8-byte word (half of the exact flatNode's 16 bytes),
// preorder layout preserved, leaf statistics carried in float32 side
// arrays. It is the node format of the forest's quantized blocked
// scoring kernel (forest.ScoreBatchQ): half the node-array footprint
// means twice as many trees fit in L2 per tree block, and one 64-bit
// load fetches a whole node.
//
// Thresholds and feature values are compared as *sort keys*: int32
// images of float32 values under an order-preserving bijection (sortKey).
// Integer comparisons let the traversal loops run fully branchless —
// the left/right select is a sign-mask blend, so the data-dependent
// direction at every node costs no branch misprediction, and Go's
// reluctance to emit conditional moves around float compares (NaN/parity
// flag handling) never enters the picture. Split outcomes are unchanged:
// w <= t over float32 exactly when sortKey(w) <= sortKey(t).
//
// Quantization is opt-in and approximate in the leaf values (float32
// rounding of means and variances) but *monotone* in the routing:
// thresholds are rounded down to the largest float32 not exceeding the
// exact threshold, so for every input whose feature values are exactly
// representable in float32 (all integer-valued level grids, powers of
// two, halves — the paper's spaces) the quantized tree routes to exactly
// the same leaf as the exact tree. Inputs within one float32 ulp of a
// threshold may route differently; quant_test.go bounds the resulting
// μ/σ divergence.
//
// The exact Compiled path remains the default engine; its keyed 8-lane
// walk (Compiled.Leaf8T) uses the same branchless scheme on exact
// uint64 keys of the float64 values, with no rounding at all.

// qCatFlag marks categorical split nodes in the feature field, mirroring
// catFlag in the exact engine but sized for the 16-bit field.
const qCatFlag int16 = 1 << 14

// qLeafKey is the key stored on leaves: strictly below sortKey of every
// real float32 (the most negative real key is sortKey(-Inf) =
// -2139095041), so the numeric step's "go left when x <= key" is always
// false and leaves route right — to themselves, via a right-delta of -1.
const qLeafKey int32 = math.MinInt32

// qNode packs one node into a single uint64 word, with the field layout
// chosen for the multi-lane walk's critical dependency chain
// (node-load → feature extract → feature-value load → compare):
//
//		bits  0..15  feature (int16, pre-scaled; bit 14 is qCatFlag)
//		bits 16..31  rdelta  (int16: right-child id minus self minus one)
//		bits 32..63  key     (int32)
//
//	  - feature sits in the low half-word so one zero-extending 16-bit
//	    read of the loaded node is the transposed kernel's load index: the
//	    id is stored pre-scaled by the 8-lane stride (f*8), the lane
//	    offset folds into the load's constant displacement, and nothing
//	    else touches the chain. Pre-scaling caps feature ids at 2^11 —
//	    three orders of magnitude above any tuning space here. Scalar
//	    (stride-1) walks shift the id back down, off their critical path.
//	  - key occupies the top 32 bits so a single arithmetic right shift
//	    of the node word yields the sign-extended int64 the widened
//	    compare wants — no separate truncate-then-extend pair.
//	  - rdelta stores the right child relative to the node itself (always
//	    positive in preorder, so the packed int16 caps a split's left
//	    subtree at 32767 nodes), which turns the blend into
//	    i+1 + rdelta&mask with no per-level subtract. Leaves store -1:
//	    their key qLeafKey forces the "right" mask, and i+1-1 self-loops.
//
// Field overloading by kind:
//
//   - numeric split: key is the sort key of the quantized split
//     threshold.
//   - categorical split: feature carries qCatFlag, key packs
//     (catBits word offset << 14 | number of categories).
//   - leaf: key is qLeafKey, feature is 0 and rdelta is -1, so every
//     step leaves the lane in place. Self-looping leaves let the
//     multi-lane traversal kernel step every lane unconditionally — no
//     per-lane "done" branches. Leaf statistics live in the
//     mean/vari/count side arrays.
//
// The hot loops extract fields with shifts straight off the loaded word;
// the accessors below serve the cold paths.
type qNode uint64

func makeQNode(key int32, feature int16, rdelta int16) qNode {
	return qNode(uint16(feature)) | qNode(uint16(rdelta))<<16 | qNode(uint32(key))<<32
}

func (n qNode) key() int32    { return int32(n >> 32) }
func (n qNode) feat() int16   { return int16(uint16(n)) }
func (n qNode) rdelta() int32 { return int32(int16(uint16(n >> 16))) }

// CompiledQ is the quantized flat tree. See the file comment.
type CompiledQ struct {
	nodes []qNode

	// depth is the maximum root-to-leaf depth. The multi-lane kernels
	// walk exactly this many levels instead of testing per level whether
	// every lane settled: overshooting a shallow lane costs only no-op
	// self-loop steps, while the settled check costs an XOR/OR reduction
	// across all lanes on every level — measurably more than the
	// overshoot on the bushy trees random forests grow.
	depth int32

	// mean, vari and count hold the leaf statistics, indexed by node id
	// (zero on internal nodes).
	mean  []float32
	vari  []float32
	count []int32

	// catBits holds the packed category-membership bitmaps, as in
	// Compiled.
	catBits []uint64

	// hasCat records whether any node splits categorically; the forest
	// kernel only reserves the categorical step when needed.
	hasCat bool
}

// qThreshold rounds t down to the largest float32 q with float64(q) <= t.
// This is the routing-monotonicity guarantee: for any float32 value w,
// w <= q exactly when float64(w) <= t, so every input that survives the
// float64→float32 row conversion unchanged takes the same path through
// the quantized tree as through the exact one.
func qThreshold(t float64) float32 {
	q := float32(t)
	if float64(q) > t {
		q = math.Nextafter32(q, float32(math.Inf(-1)))
	}
	return q
}

// sortKey maps a non-NaN float32 to an int32 with the same ordering:
// f <= g exactly when sortKey(f) <= sortKey(g). Positive floats keep
// their bit pattern (already ascending), negative floats get all
// non-sign bits flipped (reversing their descending bit order while
// staying below every positive key). Both zeros collapse to the +0 key
// first so -0 == +0 survives the mapping.
func sortKey(f float32) int32 {
	if f == 0 {
		f = 0
	}
	b := int32(math.Float32bits(f))
	return b ^ (b>>31)&0x7FFFFFFF
}

// Quantize converts the exact compiled tree into its packed form.
// It fails (leaving the exact engine as the fallback) on trees that
// exceed the packed field widths: more than 65536 nodes, feature ids
// >= 2048 (the pre-scaled field, see qNode), a split whose left subtree
// exceeds 32767 nodes (the right-delta field), or categorical splits
// beyond 2^18 bitmap words or 2^14 categories — far outside anything
// the training scales here produce.
func (c *Compiled) Quantize() (*CompiledQ, error) {
	n := len(c.nodes)
	if n > 65536 {
		return nil, fmt.Errorf("tree: %d nodes exceed the quantized form's 65536-node limit", n)
	}
	q := &CompiledQ{
		nodes: make([]qNode, n),
		mean:  make([]float32, n),
		vari:  make([]float32, n),
		count: make([]int32, n),
		depth: c.depth,
	}
	if len(c.catBits) > 0 {
		q.catBits = append([]uint64(nil), c.catBits...)
	}
	for i, nd := range c.nodes {
		if nd.isLeaf() {
			q.mean[i] = float32(c.mean[i])
			q.vari[i] = float32(c.variance[i])
			q.count[i] = c.count[i]
			q.nodes[i] = makeQNode(qLeafKey, 0, -1)
			continue
		}
		if nd.rdelta > 32767 {
			return nil, fmt.Errorf("tree: left subtree of %d nodes exceeds the quantized form's right-delta limit", nd.rdelta)
		}
		f := nd.feature()
		if f >= 1<<11 {
			return nil, fmt.Errorf("tree: feature id %d exceeds the quantized form's pre-scaled 11-bit limit", f)
		}
		if nd.feat&catFlag != 0 {
			off, ncat := nd.key>>32, uint64(uint32(nd.key))
			if off >= 1<<18 || ncat >= 1<<14 {
				return nil, fmt.Errorf("tree: categorical split (%d words, %d categories) exceeds the quantized packing", off, ncat)
			}
			q.hasCat = true
			q.nodes[i] = makeQNode(int32(uint32(off)<<14|uint32(ncat)), int16(f)*8|qCatFlag, int16(nd.rdelta))
			continue
		}
		q.nodes[i] = makeQNode(sortKey(qThreshold(keyValue(nd.key))), int16(f)*8, int16(nd.rdelta))
	}
	return q, nil
}

// CompileQ flattens and quantizes the tree in one step.
func (t *Regressor) CompileQ() (*CompiledQ, error) {
	return t.Compile().Quantize()
}

// NumNodes returns the total node count.
func (c *CompiledQ) NumNodes() int { return len(c.nodes) }

// Depth returns the maximum root-to-leaf depth — the level count the
// multi-lane kernels walk.
func (c *CompiledQ) Depth() int { return int(c.depth) }

// NodeBytes returns the byte footprint of the traversal-hot node array —
// what the forest's L2 tree-block budget is measured against.
func (c *CompiledQ) NodeBytes() int { return 8 * len(c.nodes) }

// HasCat reports whether any node splits categorically; the forest
// kernel selects the branchless numeric loop when it is false.
func (c *CompiledQ) HasCat() bool { return c.hasCat }

// LeafMean returns the leaf's training mean, widened to float64.
func (c *CompiledQ) LeafMean(i int32) float64 { return float64(c.mean[i]) }

// LeafVariance returns the leaf's within-leaf variance, widened.
func (c *CompiledQ) LeafVariance(i int32) float64 { return float64(c.vari[i]) }

// LeafCount returns the leaf's training sample count.
func (c *CompiledQ) LeafCount(i int32) int { return int(c.count[i]) }

// QuantizeRow converts a float64 feature row into the traversal key form
// (len(dst) >= len(x)): narrow to float32, then map through sortKey.
// This is the one-per-row conversion the blocked kernel amortizes over
// every tree of the ensemble.
func QuantizeRow(x []float64, dst []int32) {
	for i, v := range x {
		dst[i] = sortKey(float32(v))
	}
}

// step advances one lane by one level: numeric splits go left (the next
// preorder node) when x[f] <= key and right otherwise, leaves self-loop
// via qLeafKey and rdelta -1, categorical splits take the out-of-line
// bitmap test. The numeric select is a branch-free sign-mask blend.
func (c *CompiledQ) step(nd qNode, x []int32, i int32) int32 {
	if nd.feat()&qCatFlag != 0 {
		return c.stepCat(nd, x, i)
	}
	m := int32((int64(nd.key()) - int64(x[nd.feat()>>3])) >> 63)
	return i + 1 + nd.rdelta()&m
}

// stepCat resolves a categorical split, out of line to keep the numeric
// loops within the inlining budget. The lane's key is mapped back to the
// category index it encodes: valid categories are small non-negative
// integers, whose keys equal their float32 bit patterns, all below the
// bit pattern of 2^14 — anything at or above that (including every
// negative value's key, which has the sign bit set) routes right.
func (c *CompiledQ) stepCat(nd qNode, x []int32, i int32) int32 {
	packed := uint32(nd.key())
	ncat := int32(packed & (1<<14 - 1))
	u := uint32(x[(nd.feat()&^qCatFlag)>>3])
	if u < 0x46800000 { // float32 bits of 2^14
		cat := int32(math.Float32frombits(u))
		if cat < ncat &&
			c.catBits[int32(packed>>14)+cat>>6]>>(uint32(cat)&63)&1 != 0 {
			return i + 1
		}
	}
	return i + 1 + nd.rdelta()
}

// Leaf walks a single pre-converted row to its leaf and returns the leaf
// node id. It is the scalar fallback of the blocked kernel; Leaf8T is
// the 8-lane fast path. The numeric step is written out (not delegated
// to step) so the walk's dependent chain is load→blend→load with no call
// overhead.
func (c *CompiledQ) Leaf(x []int32) int32 {
	nodes := c.nodes
	i := int32(0)
	if !c.hasCat {
		for lvl := c.depth; lvl > 0; lvl-- {
			nd := nodes[i]
			m := int32((int64(nd)>>32 - int64(x[nd&0xFFFF>>3])) >> 63)
			i += 1 + int32(int16(uint32(nd)>>16))&m
		}
		return i
	}
	for {
		p := i
		i = c.step(nodes[i], x, i)
		if i == p {
			return i
		}
	}
}

// Leaf4 walks four rows through the tree in lockstep, one level per
// iteration per lane. The four traversal chains are independent, so the
// out-of-order core overlaps their node loads — the serial
// load→compare→index dependency of a single-row walk is the bottleneck
// the whole quantized kernel exists to hide. The walk runs for the
// tree's full depth; lanes that reach a leaf early self-loop in place
// (see qNode). Trees with categorical splits take the variant with the
// out-of-line bitmap step. The forest kernel uses the transposed Leaf8T;
// this four-slice form serves callers whose rows are not contiguous.
func (c *CompiledQ) Leaf4(x0, x1, x2, x3 []int32) (l0, l1, l2, l3 int32) {
	if c.hasCat {
		return c.leaf4Cat(x0, x1, x2, x3)
	}
	nodes := c.nodes
	var i0, i1, i2, i3 int32
	for lvl := c.depth; lvl > 0; lvl-- {
		nd0, nd1, nd2, nd3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
		m0 := int32((int64(nd0)>>32 - int64(x0[nd0&0xFFFF>>3])) >> 63)
		m1 := int32((int64(nd1)>>32 - int64(x1[nd1&0xFFFF>>3])) >> 63)
		m2 := int32((int64(nd2)>>32 - int64(x2[nd2&0xFFFF>>3])) >> 63)
		m3 := int32((int64(nd3)>>32 - int64(x3[nd3&0xFFFF>>3])) >> 63)
		i0 += 1 + int32(int16(uint32(nd0)>>16))&m0
		i1 += 1 + int32(int16(uint32(nd1)>>16))&m1
		i2 += 1 + int32(int16(uint32(nd2)>>16))&m2
		i3 += 1 + int32(int16(uint32(nd3)>>16))&m3
	}
	return i0, i1, i2, i3
}

// Leaf8T is the eight-lane walk over a *transposed* row group: feature f
// of lane k lives at x[f*8+k] (len(x) >= 8*d). Feature-major layout
// makes every lane's offset a constant folded into the load's address
// displacement — no per-lane offset registers, so all eight lane indices
// stay in registers, and the pre-scaled low-half feature field (qNode)
// is the load index in one 16-bit read. Eight independent node-load →
// feature-load → sign-mask-blend chains per level keep the out-of-order
// core's load and ALU ports saturated. The walk runs for the tree's
// full depth — no per-level settled check (see CompiledQ.depth); lanes
// that reach their leaf early self-loop for free. Trees with
// categorical splits take leaf8CatT, which keeps the numeric blend and
// detours cat nodes through the bitmap test.
func (c *CompiledQ) Leaf8T(x []int32, d int) (l0, l1, l2, l3, l4, l5, l6, l7 int32) {
	if c.hasCat {
		return c.leaf8CatT(x)
	}
	nodes := c.nodes
	var i0, i1, i2, i3, i4, i5, i6, i7 int32
	for lvl := c.depth; lvl > 0; lvl-- {
		nd0 := nodes[i0]
		nd1 := nodes[i1]
		nd2 := nodes[i2]
		nd3 := nodes[i3]
		nd4 := nodes[i4]
		nd5 := nodes[i5]
		nd6 := nodes[i6]
		nd7 := nodes[i7]
		m0 := int32((int64(nd0)>>32 - int64(x[nd0&0xFFFF])) >> 63)
		m1 := int32((int64(nd1)>>32 - int64(x[nd1&0xFFFF+1])) >> 63)
		m2 := int32((int64(nd2)>>32 - int64(x[nd2&0xFFFF+2])) >> 63)
		m3 := int32((int64(nd3)>>32 - int64(x[nd3&0xFFFF+3])) >> 63)
		m4 := int32((int64(nd4)>>32 - int64(x[nd4&0xFFFF+4])) >> 63)
		m5 := int32((int64(nd5)>>32 - int64(x[nd5&0xFFFF+5])) >> 63)
		m6 := int32((int64(nd6)>>32 - int64(x[nd6&0xFFFF+6])) >> 63)
		m7 := int32((int64(nd7)>>32 - int64(x[nd7&0xFFFF+7])) >> 63)
		i0 += 1 + int32(int16(uint32(nd0)>>16))&m0
		i1 += 1 + int32(int16(uint32(nd1)>>16))&m1
		i2 += 1 + int32(int16(uint32(nd2)>>16))&m2
		i3 += 1 + int32(int16(uint32(nd3)>>16))&m3
		i4 += 1 + int32(int16(uint32(nd4)>>16))&m4
		i5 += 1 + int32(int16(uint32(nd5)>>16))&m5
		i6 += 1 + int32(int16(uint32(nd6)>>16))&m6
		i7 += 1 + int32(int16(uint32(nd7)>>16))&m7
	}
	return i0, i1, i2, i3, i4, i5, i6, i7
}

// stepCatT is stepCat over the transposed layout: lane k's feature f
// lives at x[f*8+k].
func (c *CompiledQ) stepCatT(nd qNode, x []int32, k int, i int32) int32 {
	packed := uint32(nd.key())
	ncat := int32(packed & (1<<14 - 1))
	u := uint32(x[int(nd.feat()&^qCatFlag)+k])
	if u < 0x46800000 { // float32 bits of 2^14
		cat := int32(math.Float32frombits(u))
		if cat < ncat &&
			c.catBits[int32(packed>>14)+cat>>6]>>(uint32(cat)&63)&1 != 0 {
			return i + 1
		}
	}
	return i + 1 + nd.rdelta()
}

// leaf8CatT is Leaf8T for trees containing categorical splits: numeric
// nodes keep the branch-free blend, categorical nodes (rare — a few per
// tree at most) detour through the bitmap test. Like Leaf8T the walk
// runs for the tree's full depth, early lanes self-looping.
func (c *CompiledQ) leaf8CatT(x []int32) (l0, l1, l2, l3, l4, l5, l6, l7 int32) {
	nodes := c.nodes
	var lanes [8]int32
	for lvl := c.depth; lvl > 0; lvl-- {
		for k := range lanes {
			i := lanes[k]
			if nd := nodes[i]; nd.feat()&qCatFlag != 0 {
				lanes[k] = c.stepCatT(nd, x, k, i)
			} else {
				m := int32((int64(nd)>>32 - int64(x[uint64(nd&0xFFFF)+uint64(k)])) >> 63)
				lanes[k] = i + 1 + int32(int16(uint32(nd)>>16))&m
			}
		}
	}
	return lanes[0], lanes[1], lanes[2], lanes[3], lanes[4], lanes[5], lanes[6], lanes[7]
}

// QuantizeRowStride converts a float64 feature row into key form at a
// fixed stride: dst[f*stride] = sortKey(float32(x[f])). It is the
// transposed-tile variant of QuantizeRow (stride 8 interleaves eight
// rows feature-major for Leaf8T).
func QuantizeRowStride(x []float64, dst []int32, stride int) {
	for f, v := range x {
		dst[f*stride] = sortKey(float32(v))
	}
}

// leaf4Cat is Leaf4 for trees containing categorical splits: the numeric
// sign-mask step stays inline, categorical nodes detour through stepCat.
func (c *CompiledQ) leaf4Cat(x0, x1, x2, x3 []int32) (l0, l1, l2, l3 int32) {
	nodes := c.nodes
	var i0, i1, i2, i3 int32
	for lvl := c.depth; lvl > 0; lvl-- {
		if nd := nodes[i0]; nd.feat()&qCatFlag != 0 {
			i0 = c.stepCat(nd, x0, i0)
		} else {
			m := int32((int64(nd)>>32 - int64(x0[nd&0xFFFF>>3])) >> 63)
			i0 += 1 + int32(int16(uint32(nd)>>16))&m
		}
		if nd := nodes[i1]; nd.feat()&qCatFlag != 0 {
			i1 = c.stepCat(nd, x1, i1)
		} else {
			m := int32((int64(nd)>>32 - int64(x1[nd&0xFFFF>>3])) >> 63)
			i1 += 1 + int32(int16(uint32(nd)>>16))&m
		}
		if nd := nodes[i2]; nd.feat()&qCatFlag != 0 {
			i2 = c.stepCat(nd, x2, i2)
		} else {
			m := int32((int64(nd)>>32 - int64(x2[nd&0xFFFF>>3])) >> 63)
			i2 += 1 + int32(int16(uint32(nd)>>16))&m
		}
		if nd := nodes[i3]; nd.feat()&qCatFlag != 0 {
			i3 = c.stepCat(nd, x3, i3)
		} else {
			m := int32((int64(nd)>>32 - int64(x3[nd&0xFFFF>>3])) >> 63)
			i3 += 1 + int32(int16(uint32(nd)>>16))&m
		}
	}
	return i0, i1, i2, i3
}

// PredictStats returns the quantized tree's (mean, variance, count) for a
// float64 feature row, converting the row on the fly. It is the
// quantized analogue of Compiled.PredictStats — the reference entry the
// equivalence and fuzz tests compare against — not the batch hot path,
// which pre-converts rows once per tile (see forest.ScoreBatchQ).
func (c *CompiledQ) PredictStats(x []float64) (mean, variance float64, count int) {
	var buf [64]int32
	var xq []int32
	if len(x) > len(buf) {
		xq = make([]int32, len(x))
	} else {
		xq = buf[:len(x)]
	}
	QuantizeRow(x, xq)
	l := c.Leaf(xq)
	return float64(c.mean[l]), float64(c.vari[l]), int(c.count[l])
}
