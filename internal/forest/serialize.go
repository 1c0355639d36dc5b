package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/jsonw"
	"repro/internal/space"
	"repro/internal/tree"
)

// forestDump is the decoded wire form of a Forest. Trees stay raw JSON
// messages so the tree package owns its own format. Encoding is the
// direct appender (AppendJSON), which writes the same bytes
// encoding/json would write for this struct.
type forestDump struct {
	Config   Config            `json:"config"`
	Features []space.Feature   `json:"features"`
	OOB      *float64          `json:"oob,omitempty"` // nil encodes NaN
	Trees    []json.RawMessage `json:"trees"`

	// NextRefresh preserves the partial-update rotation cursor, so a
	// reloaded forest continues warm updates exactly where the original
	// left off (required for bit-identical checkpoint/resume).
	NextRefresh int `json:"next_refresh,omitempty"`
}

// MarshalJSON encodes the fitted forest, including every tree, the
// feature schema and the training configuration — enough to reload and
// predict on another machine, the "model portability" the paper's
// conclusion points at.
func (f *Forest) MarshalJSON() ([]byte, error) {
	return f.AppendJSON(nil)
}

// AppendJSON appends the forest's wire form to b in one pass: the
// config, feature schema, OOB error (omitted when NaN), every tree (see
// tree.Regressor.AppendJSON) and the rotation cursor (omitted when 0).
// The bytes are exactly what encoding/json writes for forestDump, with
// no reflection and no per-tree intermediate buffers; checkpointing
// calls it on every labelled batch.
func (f *Forest) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"config":{"NumTrees":`...)
	b = strconv.AppendInt(b, int64(f.cfg.NumTrees), 10)
	b = append(b, `,"Tree":`...)
	b, err := f.cfg.Tree.AppendJSON(b)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"Uncertainty":`...)
	b = strconv.AppendInt(b, int64(f.cfg.Uncertainty), 10)
	b = append(b, `,"Workers":`...)
	b = strconv.AppendInt(b, int64(f.cfg.Workers), 10)
	b = append(b, `,"DisableBagging":`...)
	b = strconv.AppendBool(b, f.cfg.DisableBagging)
	b = append(b, `},"features":[`...)
	for i, ft := range f.features {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Name":`...)
		b = jsonw.String(b, ft.Name)
		b = append(b, `,"Kind":`...)
		b = strconv.AppendInt(b, int64(ft.Kind), 10)
		b = append(b, `,"NumCategories":`...)
		b = strconv.AppendInt(b, int64(ft.NumCategories), 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	if !math.IsNaN(f.oob) {
		b = append(b, `,"oob":`...)
		if b, err = jsonw.Float(b, f.oob); err != nil {
			return nil, err
		}
	}
	b = append(b, `,"trees":[`...)
	for i, t := range f.trees {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = t.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	b = append(b, ']')
	if f.nextRefresh != 0 {
		b = append(b, `,"next_refresh":`...)
		b = strconv.AppendInt(b, int64(f.nextRefresh), 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes a forest serialized by MarshalJSON.
func (f *Forest) UnmarshalJSON(data []byte) error {
	var d forestDump
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.Trees) == 0 {
		return fmt.Errorf("forest: dump has no trees")
	}
	if len(d.Features) == 0 {
		return fmt.Errorf("forest: dump has no feature schema")
	}
	if d.NextRefresh < 0 {
		return fmt.Errorf("forest: negative next_refresh %d", d.NextRefresh)
	}
	trees := make([]*tree.Regressor, len(d.Trees))
	for i, raw := range d.Trees {
		t, err := tree.UnmarshalJSONWithFeatures(raw, d.Features)
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		trees[i] = t
	}
	f.trees = trees
	f.features = d.Features
	f.cfg = d.Config
	f.oob = math.NaN()
	if d.OOB != nil {
		f.oob = *d.OOB
	}
	f.nextRefresh = d.NextRefresh % len(trees)
	f.treeGen = make([]uint64, len(trees))
	return nil
}

// Save writes the forest as JSON to w.
func (f *Forest) Save(w io.Writer) error {
	data, err := f.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Load reads a forest serialized with Save.
func Load(r io.Reader) (*Forest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var f Forest
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
