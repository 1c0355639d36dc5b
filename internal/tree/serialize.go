package tree

import (
	"encoding/json"
	"fmt"
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

// loadNode rebuilds the subtree d describes, rejecting anything Fit
// could not have produced over features that the prediction paths would
// trip over: negative counts, split features outside the schema, and
// categorical splits on numeric features or with a bitmap width other
// than the feature's category count.
func loadNode(d *nodeDump, features []space.Feature) (*node, error) {
	if d.Count < 0 {
		return nil, fmt.Errorf("tree: negative sample count %d", d.Count)
	}
	n := &node{mean: d.Mean, variance: d.Variance, count: d.Count}
	if d.Left == nil && d.Right == nil {
		n.targets = d.Targets
		return n, nil
	}
	if d.Left == nil || d.Right == nil {
		return nil, fmt.Errorf("tree: node with exactly one child")
	}
	if d.Feature < 0 || d.Feature >= len(features) {
		return nil, fmt.Errorf("tree: split feature %d outside the %d-feature schema", d.Feature, len(features))
	}
	ft := features[d.Feature]
	n.feature = d.Feature
	n.threshold = d.Threshold
	if d.CatLeft != nil || d.NumCats > 0 {
		if d.NumCats <= 0 {
			return nil, fmt.Errorf("tree: categorical node without category count")
		}
		if ft.Kind != space.FeatCategorical {
			return nil, fmt.Errorf("tree: categorical split on numeric feature %d (%s)", d.Feature, ft.Name)
		}
		if d.NumCats != ft.NumCategories || d.NumCats > maxCategories {
			return nil, fmt.Errorf("tree: categorical split of width %d on feature %d (%s) with %d categories",
				d.NumCats, d.Feature, ft.Name, ft.NumCategories)
		}
		n.catLeft = make([]bool, d.NumCats)
		for _, c := range d.CatLeft {
			if c < 0 || c >= d.NumCats {
				return nil, fmt.Errorf("tree: category %d out of bitmap width %d", c, d.NumCats)
			}
			n.catLeft[c] = true
		}
	} else if ft.Kind == space.FeatCategorical {
		return nil, fmt.Errorf("tree: numeric split on categorical feature %d (%s)", d.Feature, ft.Name)
	}
	var err error
	if n.left, err = loadNode(d.Left, features); err != nil {
		return nil, err
	}
	if n.right, err = loadNode(d.Right, features); err != nil {
		return nil, err
	}
	return n, nil
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
	if b, err = appendNode(b, t.root); err != nil {
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

// appendNode writes n's subtree in nodeDump order (f, t, cl, nc, l, r,
// m, v, n, ts) with nodeDump's omitempty rules: zero split fields,
// empty category lists and empty target lists are left out.
func appendNode(b []byte, n *node) ([]byte, error) {
	var err error
	b = append(b, '{')
	if !n.isLeaf() {
		if n.feature != 0 {
			b = append(b, `"f":`...)
			b = strconv.AppendInt(b, int64(n.feature), 10)
			b = append(b, ',')
		}
		if n.threshold != 0 {
			b = append(b, `"t":`...)
			if b, err = jsonw.Float(b, n.threshold); err != nil {
				return nil, err
			}
			b = append(b, ',')
		}
		if n.catLeft != nil {
			first := true
			for c, in := range n.catLeft {
				if !in {
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
			if len(n.catLeft) != 0 {
				b = append(b, `"nc":`...)
				b = strconv.AppendInt(b, int64(len(n.catLeft)), 10)
				b = append(b, ',')
			}
		}
		b = append(b, `"l":`...)
		if b, err = appendNode(b, n.left); err != nil {
			return nil, err
		}
		b = append(b, `,"r":`...)
		if b, err = appendNode(b, n.right); err != nil {
			return nil, err
		}
		b = append(b, ',')
	}
	b = append(b, `"m":`...)
	if b, err = jsonw.Float(b, n.mean); err != nil {
		return nil, err
	}
	b = append(b, `,"v":`...)
	if b, err = jsonw.Float(b, n.variance); err != nil {
		return nil, err
	}
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(n.count), 10)
	if n.isLeaf() && len(n.targets) != 0 {
		b = append(b, `,"ts":[`...)
		for i, v := range n.targets {
			if i > 0 {
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
// reattaching the feature schema (kept by the owning forest) and
// validating every split against it (see loadNode).
func UnmarshalJSONWithFeatures(data []byte, features []space.Feature) (*Regressor, error) {
	var d treeDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if d.Root == nil {
		return nil, fmt.Errorf("tree: dump has no root")
	}
	root, err := loadNode(d.Root, features)
	if err != nil {
		return nil, err
	}
	return &Regressor{features: features, root: root, cfg: d.Config}, nil
}
