package tree

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/jsonw"
	"repro/internal/space"
)

// nodeDump is the wire form of a tree node, as decoded. Leaves omit the
// split fields; internal nodes always carry both children. Encoding is
// the direct appender (AppendJSON), which writes the same bytes
// encoding/json would write for this struct.
type nodeDump struct {
	Feature   int       `json:"f,omitempty"`
	Threshold float64   `json:"t,omitempty"`
	CatLeft   []int     `json:"cl,omitempty"` // category indices routed left
	NumCats   int       `json:"nc,omitempty"` // width of the catLeft bitmap
	Left      *nodeDump `json:"l,omitempty"`
	Right     *nodeDump `json:"r,omitempty"`

	Mean     float64 `json:"m"`
	Variance float64 `json:"v"`
	Count    int     `json:"n"`

	// Targets carries the leaf's sorted training targets when the tree
	// was fitted with Config.KeepTargets (quantile support).
	Targets []float64 `json:"ts,omitempty"`
}

// treeDump is the wire form of a fitted Regressor (without the feature
// schema, which the owning forest stores once).
type treeDump struct {
	Config Config    `json:"config"`
	Root   *nodeDump `json:"root"`
}

// maxCategories bounds the category count a decoded categorical split
// may declare. Its bitmap is allocated at that width on every split
// node, so an unbounded count in a damaged or hostile file would
// exhaust memory; real search spaces have a few dozen levels.
const maxCategories = 1 << 16

// loadNode appends the subtree d describes to t's flat arrays in
// preorder, rejecting anything FitRanked could not have produced over
// features that the prediction paths would trip over: sample counts
// outside int32, split features outside the schema, categorical splits
// on numeric features, with a bitmap width other than the feature's
// category count or carrying a threshold, and numeric splits on
// categorical features.
func (t *Regressor) loadNode(d *nodeDump, depth int32) error {
	if d.Count < 0 || d.Count > math.MaxInt32 {
		return fmt.Errorf("tree: sample count %d outside [0, %d]", d.Count, math.MaxInt32)
	}
	id := t.push(d.Mean, d.Variance, int32(d.Count), depth)
	if d.Left == nil && d.Right == nil {
		if d.Targets != nil {
			t.setTargets(id, d.Targets)
		}
		return nil
	}
	if d.Left == nil || d.Right == nil {
		return fmt.Errorf("tree: node with exactly one child")
	}
	if d.Feature < 0 || d.Feature >= len(t.features) {
		return fmt.Errorf("tree: split feature %d outside the %d-feature schema", d.Feature, len(t.features))
	}
	ft := t.features[d.Feature]
	key := Key(d.Threshold)
	categorical := d.CatLeft != nil || d.NumCats > 0
	if categorical {
		if d.NumCats <= 0 {
			return fmt.Errorf("tree: categorical node without category count")
		}
		if ft.Kind != space.FeatCategorical {
			return fmt.Errorf("tree: categorical split on numeric feature %d (%s)", d.Feature, ft.Name)
		}
		if d.NumCats != ft.NumCategories || d.NumCats > maxCategories {
			return fmt.Errorf("tree: categorical split of width %d on feature %d (%s) with %d categories",
				d.NumCats, d.Feature, ft.Name, ft.NumCategories)
		}
		if d.Threshold != 0 {
			return fmt.Errorf("tree: categorical split on feature %d (%s) with threshold %v", d.Feature, ft.Name, d.Threshold)
		}
		key = t.newCatBitmap(d.NumCats)
		for _, c := range d.CatLeft {
			if c < 0 || c >= d.NumCats {
				return fmt.Errorf("tree: category %d out of bitmap width %d", c, d.NumCats)
			}
			t.setCat(key, c)
		}
	} else if ft.Kind == space.FeatCategorical {
		return fmt.Errorf("tree: numeric split on categorical feature %d (%s)", d.Feature, ft.Name)
	}
	if err := t.loadNode(d.Left, depth+1); err != nil {
		return err
	}
	right := int32(len(t.nodes))
	if err := t.loadNode(d.Right, depth+1); err != nil {
		return err
	}
	t.setSplit(id, d.Feature, key, categorical, right)
	return nil
}

// MarshalJSON encodes the fitted tree structure (see AppendJSON).
func (t *Regressor) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil)
}

// AppendJSON appends the tree's wire form — {"config":…,"root":…},
// without the feature schema, which the owning forest stores once — to
// b. The bytes are exactly what encoding/json writes for the nodeDump
// form UnmarshalJSONWithFeatures reads, produced without reflection or
// an intermediate dump tree. Non-finite floats are an error.
func (t *Regressor) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"config":`...)
	b, err := t.cfg.AppendJSON(b)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"root":`...)
	if b, err = t.appendNode(b, 0); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// AppendJSON appends the config as encoding/json writes the struct
// (exported field names as keys, declaration order).
func (c Config) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"MaxDepth":`...)
	b = strconv.AppendInt(b, int64(c.MaxDepth), 10)
	b = append(b, `,"MinSamplesLeaf":`...)
	b = strconv.AppendInt(b, int64(c.MinSamplesLeaf), 10)
	b = append(b, `,"MinSamplesSplit":`...)
	b = strconv.AppendInt(b, int64(c.MinSamplesSplit), 10)
	b = append(b, `,"MaxFeatures":`...)
	b = strconv.AppendInt(b, int64(c.MaxFeatures), 10)
	b = append(b, `,"MinImpurityDecrease":`...)
	b, err := jsonw.Float(b, c.MinImpurityDecrease)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"KeepTargets":`...)
	b = strconv.AppendBool(b, c.KeepTargets)
	return append(b, '}'), nil
}

// appendNode writes node i's subtree in nodeDump order (f, t, cl, nc,
// l, r, m, v, n, ts) with nodeDump's omitempty rules: zero split
// fields, empty category lists and empty target lists are left out. A
// numeric split's threshold is the value its key decodes to; Key maps
// both zeros to +0, which "t" omits either way.
func (t *Regressor) appendNode(b []byte, i int32) ([]byte, error) {
	var err error
	nd := t.nodes[i]
	b = append(b, '{')
	if !nd.isLeaf() {
		if f := nd.feature(); f != 0 {
			b = append(b, `"f":`...)
			b = strconv.AppendInt(b, int64(f), 10)
			b = append(b, ',')
		}
		if nd.feat&catFlag == 0 {
			if th := keyValue(nd.key); th != 0 {
				b = append(b, `"t":`...)
				if b, err = jsonw.Float(b, th); err != nil {
					return nil, err
				}
				b = append(b, ',')
			}
		} else {
			ncat := int(uint32(nd.key))
			first := true
			for c := 0; c < ncat; c++ {
				if !t.catLeft(nd.key, c) {
					continue
				}
				if first {
					b = append(b, `"cl":[`...)
					first = false
				} else {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(c), 10)
			}
			if !first {
				b = append(b, "],"...)
			}
			if ncat != 0 {
				b = append(b, `"nc":`...)
				b = strconv.AppendInt(b, int64(ncat), 10)
				b = append(b, ',')
			}
		}
		b = append(b, `"l":`...)
		if b, err = t.appendNode(b, i+1); err != nil {
			return nil, err
		}
		b = append(b, `,"r":`...)
		if b, err = t.appendNode(b, i+1+nd.rdelta); err != nil {
			return nil, err
		}
		b = append(b, ',')
	}
	b = append(b, `"m":`...)
	if b, err = jsonw.Float(b, t.mean[i]); err != nil {
		return nil, err
	}
	b = append(b, `,"v":`...)
	if b, err = jsonw.Float(b, t.variance[i]); err != nil {
		return nil, err
	}
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(t.count[i]), 10)
	if nd.isLeaf() && t.targets != nil && len(t.targets[i]) != 0 {
		b = append(b, `,"ts":[`...)
		for k, v := range t.targets[i] {
			if k > 0 {
				b = append(b, ',')
			}
			if b, err = jsonw.Float(b, v); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// UnmarshalJSONWithFeatures decodes a tree serialized by MarshalJSON,
// reattaching the feature schema (kept by the owning forest),
// validating every node against it (see loadNode) and writing the nodes
// straight into the flat arrays.
func UnmarshalJSONWithFeatures(data []byte, features []space.Feature) (*Regressor, error) {
	var d treeDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if d.Root == nil {
		return nil, fmt.Errorf("tree: dump has no root")
	}
	t := &Regressor{features: features, cfg: d.Config}
	if err := t.loadNode(d.Root, 0); err != nil {
		return nil, err
	}
	return t, nil
}
