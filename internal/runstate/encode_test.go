package runstate

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// The mirror types restate the forest/tree wire form for encoding/json
// (same fields, tags and order as the decode structs of internal/forest
// and internal/tree), so the reflective encoder the checkpoint path used
// to run can re-encode a snapshot's model as the oracle.
type nodeMirror struct {
	Feature   int         `json:"f,omitempty"`
	Threshold float64     `json:"t,omitempty"`
	CatLeft   []int       `json:"cl,omitempty"`
	NumCats   int         `json:"nc,omitempty"`
	Left      *nodeMirror `json:"l,omitempty"`
	Right     *nodeMirror `json:"r,omitempty"`
	Mean      float64     `json:"m"`
	Variance  float64     `json:"v"`
	Count     int         `json:"n"`
	Targets   []float64   `json:"ts,omitempty"`
}

type treeMirror struct {
	Config tree.Config `json:"config"`
	Root   *nodeMirror `json:"root"`
}

type forestMirror struct {
	Config      forest.Config   `json:"config"`
	Features    []space.Feature `json:"features"`
	OOB         *float64        `json:"oob,omitempty"`
	Trees       []treeMirror    `json:"trees"`
	NextRefresh int             `json:"next_refresh,omitempty"`
}

// checkSnapshotBytes saves snap and requires the file to equal the
// reflective encoding of the whole snapshot (the previous Save), and —
// for a forest model, given as the bytes the snapshot carries or, for a
// fit-seed snapshot, those of the forest its resume refits — the model
// bytes to equal encoding/json over the mirror of the decoded model and
// to survive a forest reload unchanged. model is nil for other models.
func checkSnapshotBytes(t *testing.T, path string, snap *core.Snapshot, model []byte) {
	t.Helper()
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("iteration %d: checkpoint differs from encoding/json (%d vs %d bytes)", snap.Iteration, len(got), len(want))
	}
	if model == nil {
		return
	}
	var m forestMirror
	if err := json.Unmarshal(model, &m); err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(model, ref) {
		t.Fatalf("iteration %d: model bytes differ from encoding/json over the model", snap.Iteration)
	}
	f, err := forest.Load(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	again, err := f.AppendJSON(nil)
	if err != nil || !bytes.Equal(again, model) {
		t.Fatalf("iteration %d: reloaded model re-encodes differently (err %v)", snap.Iteration, err)
	}
}

// forestJSON is the wire form of a forest model.
func forestJSON(t *testing.T, m core.Model) []byte {
	t.Helper()
	data, err := m.(*forest.Forest).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// drive runs a session to completion, checking every boundary snapshot.
// The forest a fit-seed snapshot's resume refits must equal the live one.
func drive(t *testing.T, cfg core.SessionConfig, ev core.Evaluator, isForest bool) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	n := 0
	var s *core.Session
	cfg.Params.CheckpointEvery = 1
	cfg.Params.Checkpoint = func(snap *core.Snapshot) error {
		var model []byte
		if isForest {
			model = snap.Model
			if snap.FitSeed != nil {
				rs, err := core.ResumeSession(snap, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if model = forestJSON(t, rs.Result().Model); !bytes.Equal(model, forestJSON(t, s.Result().Model)) {
					t.Fatalf("iteration %d: refit from the fit seed differs from the live forest", snap.Iteration)
				}
			}
		}
		checkSnapshotBytes(t, path, snap, model)
		n++
		return nil
	}
	s, err := core.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for !s.Done() {
		batch, err := s.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]core.Label, len(batch))
		for i, c := range batch {
			if labels[i].Y, err = ev.Evaluate(ctx, c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Tell(ctx, labels); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// prettyModel is a non-forest surrogate whose marshaler returns indented
// JSON with characters encoding/json escapes: the session's
// json.Marshal compacts and escapes it before Save writes it verbatim.
type prettyModel struct{ mean float64 }

func (m prettyModel) Predict([]float64) float64 { return m.mean }

func (m prettyModel) PredictBatch(X [][]float64) (mu, sigma []float64) {
	mu = make([]float64, len(X))
	sigma = make([]float64, len(X))
	for i := range mu {
		mu[i], sigma[i] = m.mean, 1
	}
	return mu, sigma
}

func (m prettyModel) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(map[string]interface{}{"kind": "<mean> & co", "mean": m.mean}, "", "  ")
}

// updatingModel is a prettyModel that warm-updates in place, so a
// WarmUpdate session serializes it instead of recording a fit seed.
type updatingModel struct{ prettyModel }

func (m *updatingModel) Update(_ [][]float64, y []float64, _ *rng.RNG) error {
	m.mean = y[len(y)-1]
	return nil
}

// TestSnapshotBytesMatchEncodingJSON gates the checkpoint wire path: for
// every bench problem, cold and warm refits, with and without leaf
// targets, a categorical space, a service manifest and a non-forest
// model (cold-refit and warm-updated), every checkpoint file is
// byte-identical to encoding/json's encoding of the snapshot, and every
// forest model — carried, or refitted from the fit seed — to
// encoding/json's encoding of the model.
func TestSnapshotBytesMatchEncodingJSON(t *testing.T) {
	for i, p := range bench.All() {
		for _, warm := range []bool{false, true} {
			params := core.Params{NInit: 5, NBatch: 4, NMax: 21, WarmUpdate: warm,
				Forest: forest.Config{NumTrees: 6, Tree: tree.Config{KeepTargets: (i+btoi(warm))%2 == 0}}}
			n := drive(t, core.SessionConfig{
				Source: pool.NewUniform(p.Space(), uint64(i+1), 300), Strategy: core.PWU{Alpha: 0.1},
				Params: params, RNG: rng.New(uint64(100 + i)),
				Evaluator: bench.Evaluator(p, rng.New(uint64(200+i))),
			}, bench.Evaluator(p, rng.New(uint64(300+i))), true)
			if n != 5 {
				t.Fatalf("%s: %d checkpoints, want 5", p.Name(), n)
			}
		}
	}

	sp := space.MustNew(space.Cat("layout <row&col>", "row", "col", "tiled", "blocked"),
		space.NumRange("tile", 1, 64, 1), space.Bool("unroll"))
	ev := core.EvaluatorFunc(func(_ context.Context, c space.Config) (float64, error) {
		return float64(c[0]*3+c[2]) + sp.ValueByName(c, "tile")/7, nil
	})
	manifest := json.RawMessage("{\n  \"tenant\": \"a<b>&c\",\n  \"model\": null\n}")
	for _, warm := range []bool{false, true} {
		drive(t, core.SessionConfig{
			Source: pool.NewUniform(sp, 9, 400), Strategy: core.PWU{Alpha: 0.1},
			Params: core.Params{NInit: 6, NBatch: 3, NMax: 30, WarmUpdate: warm, Forest: forest.Config{NumTrees: 8}},
			RNG:    rng.New(10), Service: manifest,
		}, ev, true)
	}

	fit := func(_ [][]float64, y []float64, _ []space.Feature, _ *rng.RNG) (core.Model, error) {
		sum := 0.0
		for _, v := range y {
			sum += v
		}
		return prettyModel{mean: sum / float64(len(y))}, nil
	}
	drive(t, core.SessionConfig{
		Source: pool.NewUniform(sp, 11, 100), Strategy: core.PWU{Alpha: 0.1},
		Params: core.Params{NInit: 4, NBatch: 2, NMax: 10, Fitter: fit},
		RNG:    rng.New(12), Service: manifest,
	}, ev, false)
	fitUpdating := func(_ [][]float64, y []float64, _ []space.Feature, _ *rng.RNG) (core.Model, error) {
		return &updatingModel{prettyModel{mean: y[0]}}, nil
	}
	drive(t, core.SessionConfig{
		Source: pool.NewUniform(sp, 11, 100), Strategy: core.PWU{Alpha: 0.1},
		Params: core.Params{NInit: 4, NBatch: 2, NMax: 10, Fitter: fitUpdating, WarmUpdate: true},
		RNG:    rng.New(12), Service: manifest,
	}, ev, false)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSaveRejectsInvalidModel: the model is written verbatim, so Save
// must still refuse one that is not JSON — before touching the
// previous checkpoint.
func TestSaveRejectsInvalidModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{`{"trees":`, `{} {}`, `nul`, ""} {
		bad := sampleSnapshot()
		bad.Iteration = 99
		bad.Model = json.RawMessage(model)
		if err := Save(path, bad); err == nil {
			t.Fatalf("model %q saved", model)
		}
		if _, err := json.Marshal(bad); err == nil {
			t.Fatalf("encoding/json accepts model %q", model)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("previous checkpoint changed by a rejected save (err %v)", err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("rejected saves left files behind: %v (err %v)", entries, err)
	}

	nilModel := sampleSnapshot()
	nilModel.Model = nil
	if err := Save(path, nilModel); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	want, _ := json.Marshal(nilModel)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("nil model: checkpoint differs from encoding/json (err %v)", err)
	}
}

// refitSession drives a serve-refit-shaped session to its end — adi, a
// 2000-candidate pool, batches of one, 100 labels, 32 cold-refit trees —
// and returns it at its final boundary.
func refitSession(b *testing.B) *core.Session {
	b.Helper()
	p, err := bench.ByName("adi")
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSession(core.SessionConfig{
		Source: pool.NewUniform(p.Space(), 42, 2000), Strategy: core.PWU{Alpha: 0.1},
		Params: core.Params{NInit: 10, NBatch: 1, NMax: 100, Forest: forest.Config{NumTrees: 32}},
		RNG:    rng.New(42),
	})
	if err != nil {
		b.Fatal(err)
	}
	ev := bench.Evaluator(p, rng.New(43))
	ctx := context.Background()
	for !s.Done() {
		batch, err := s.Ask(ctx)
		if err != nil {
			b.Fatal(err)
		}
		labels := make([]core.Label, len(batch))
		for i, c := range batch {
			labels[i].Y, _ = ev.Evaluate(ctx, c)
		}
		if _, err := s.Tell(ctx, labels); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

var encodedSink []byte

// BenchmarkSnapshotEncode times what every serve-refit boundary pays
// before the disk: the session snapshot (which records this cold-refit
// session's fit seed, not its forest) and its file encoding. Run with
// -cpu 1. The root package's BenchmarkSessionCheckpoint adds the
// fsync'd write and records the BENCH_checkpoint.json trajectory.
func BenchmarkSnapshotEncode(b *testing.B) {
	s := refitSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if encodedSink, err = encode(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(encodedSink)), "bytes/snapshot")
}

// TestSaveValidatesUnappendedModels: Save skips json.Valid only for the
// model bytes the forest's appender wrote for the snapshot. A session
// snapshot whose model went through json.Marshal (a non-forest
// surrogate) and a forest snapshot whose Model was replaced are both
// validated, so an invalid model is still rejected before the temp
// file exists and the previous checkpoint stays as it was. Both
// sessions warm-update, so their snapshots carry the model rather than
// a fit seed.
func TestSaveValidatesUnappendedModels(t *testing.T) {
	sp := space.MustNew(space.NumRange("tile", 1, 64, 1), space.Bool("unroll"))
	ev := core.EvaluatorFunc(func(_ context.Context, c space.Config) (float64, error) {
		return float64(c[1]) + sp.ValueByName(c, "tile")/7, nil
	})
	fit := func(_ [][]float64, y []float64, _ []space.Feature, _ *rng.RNG) (core.Model, error) {
		return &updatingModel{prettyModel{mean: y[0]}}, nil
	}
	// take runs the cold start and one warm update and returns the
	// boundary snapshot.
	take := func(p core.Params) *core.Snapshot {
		t.Helper()
		s, err := core.NewSession(core.SessionConfig{
			Source: pool.NewUniform(sp, 3, 50), Strategy: core.PWU{Alpha: 0.1}, Params: p, RNG: rng.New(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for s.Iteration() < 1 {
			batch, err := s.Ask(ctx)
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]core.Label, len(batch))
			for i, c := range batch {
				labels[i].Y, _ = ev.Evaluate(ctx, c)
			}
			if _, err := s.Tell(ctx, labels); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	forestSnap := take(core.Params{NInit: 4, NBatch: 2, NMax: 10, Forest: forest.Config{NumTrees: 4}, WarmUpdate: true})
	marshaled := take(core.Params{NInit: 4, NBatch: 2, NMax: 10, Fitter: fit, WarmUpdate: true})
	if !forestSnap.ModelAppended() || marshaled.ModelAppended() {
		t.Fatalf("ModelAppended: forest %v, json.Marshal model %v; want true, false",
			forestSnap.ModelAppended(), marshaled.ModelAppended())
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, forestSnap); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*core.Snapshot{"non-forest": marshaled, "replaced forest": forestSnap} {
		for _, model := range []string{`{"trees":`, `{} {}`, `nul`, `{"mean":1}x`} {
			bad := *snap
			bad.Model = json.RawMessage(model)
			if bad.ModelAppended() {
				t.Fatalf("%s: a replaced model still reads as appended", name)
			}
			if err := Save(path, &bad); err == nil {
				t.Fatalf("%s: model %q saved", name, model)
			}
		}
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("previous checkpoint changed by a rejected save (err %v)", err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("rejected saves left files behind: %v (err %v)", entries, err)
	}
}
