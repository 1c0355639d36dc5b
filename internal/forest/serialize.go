package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/space"
	"repro/internal/tree"
)

// forestDump is the wire form of a fitted Forest. Trees are stored as
// raw JSON messages so the tree package owns its own format.
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
	d := forestDump{Config: f.cfg, Features: f.features, NextRefresh: f.nextRefresh}
	if !math.IsNaN(f.oob) {
		v := f.oob
		d.OOB = &v
	}
	for _, t := range f.trees {
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		d.Trees = append(d.Trees, raw)
	}
	return json.Marshal(d)
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
	trees := make([]*tree.Regressor, len(d.Trees))
	for i, raw := range d.Trees {
		t, err := tree.UnmarshalJSONWithFeatures(raw, d.Features)
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		trees[i] = t
	}
	f.trees = trees
	f.compiled = make([]*tree.Compiled, len(trees))
	for i, t := range trees {
		f.compiled[i] = t.Compile()
	}
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
	data, err := json.Marshal(f)
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
