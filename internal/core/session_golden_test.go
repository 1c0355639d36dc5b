package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// The session-equivalence gate: the run engine's observable behavior —
// labels, selections, telemetry counters, RNG stream position, and the
// snapshot wire format — is pinned to goldens captured from the
// pre-refactor monolithic streamed loop. The ask-tell Session must
// reproduce them bit for bit for all 8 strategies, over a lazy source
// and over the same candidates materialized as a pool.Slice, and from a
// resume at every checkpoint prefix. Checkpoints written by the retired
// materialized engine (testdata/legacy_v1_*.json) must resume onto the
// same goldens.
//
// Regenerate with SESSION_GOLDEN_UPDATE=1 (only legitimate when the
// engine's observable contract deliberately changes).

const sessionGoldenPath = "testdata/session_golden.json"

// goldenSpace is the fixture space: two numeric parameters and one
// categorical, so both feature kinds flow through selection and fitting.
func goldenSpace() *space.Space {
	return space.MustNew(
		space.NumRange("a", 0, 9, 1),
		space.NumRange("b", 0, 7, 1),
		space.Cat("c", "x", "y", "z"),
	)
}

// goldenEvaluator is a pure deterministic objective (no noise state, so
// resume needs no evaluator-state restore).
func goldenEvaluator(sp *space.Space) Evaluator {
	effect := []float64{0.0, 1.5, -0.5}
	return EvaluatorFunc(func(ctx context.Context, c space.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		a := sp.ValueByName(c, "a")
		b := sp.ValueByName(c, "b")
		k := sp.LevelByName(c, "c")
		return (a-5)*(a-5) + (b-3)*(b-3) + 0.1*a*b + effect[k] + 1, nil
	})
}

func goldenParams(checkpoint func(*Snapshot) error) Params {
	return Params{
		NInit: 6, NBatch: 3, NMax: 24,
		Forest:           forest.Config{NumTrees: 12, Workers: 2},
		RecordSelections: true,
		CheckpointEvery:  1,
		Checkpoint:       checkpoint,
	}
}

const (
	goldenPoolSeed = 7701
	goldenRunSeed  = 7702
	goldenPoolSize = 200
)

// goldenStrategies returns all eight registered strategies.
func goldenStrategies(t testing.TB) []Strategy {
	t.Helper()
	names := []string{"PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Random", "CV", "EI"}
	out := make([]Strategy, len(names))
	for i, n := range names {
		s, err := ByName(n, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// goldenCase is one strategy's cell of the golden table. Streamed is
// always true; it stays in the wire form so the cells keep the bytes
// they were captured with.
type goldenCase struct {
	Strategy     string          `json:"strategy"`
	Streamed     bool            `json:"streamed"`
	TrainConfigs []space.Config  `json:"train_configs"`
	TrainY       []float64       `json:"train_y"`
	Selections   []Selection     `json:"selections"`
	Iterations   int             `json:"iterations"`
	RNG          rng.State       `json:"rng"`
	Stats        []IterStats     `json:"stats"`
	FailedCost   float64         `json:"failed_cost"`
	GuardCost    float64         `json:"guard_cost"`
	SnapshotAt   int             `json:"snapshot_at"`
	Snapshot     json.RawMessage `json:"snapshot"`
}

// zeroDurations strips the wall-clock fields, which are explicitly
// excluded from the engine's bit-identity guarantees.
func zeroDurations(stats []IterStats) []IterStats {
	out := append([]IterStats(nil), stats...)
	for i := range out {
		out[i].FitTime, out[i].SelectTime, out[i].EvalTime = 0, 0, 0
	}
	return out
}

// canonicalSnapshot renders a snapshot deterministically: durations
// zeroed and the serialized model replaced by its SHA-256, so the golden
// stays compact while still pinning the model bytes.
func canonicalSnapshot(t testing.TB, snap *Snapshot) json.RawMessage {
	t.Helper()
	cp := *snap
	cp.Stats = zeroDurations(cp.Stats)
	sum := sha256.Sum256(cp.Model)
	hashed, err := json.Marshal("sha256:" + hex.EncodeToString(sum[:]))
	if err != nil {
		t.Fatal(err)
	}
	cp.Model = hashed
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenSource is the fixture pool: a lazily generated uniform sample.
func goldenSource(sp *space.Space) pool.Source {
	return pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
}

// resultCase renders a run's deterministic outcome as a golden cell,
// with no snapshot attached.
func resultCase(strat Strategy, res *Result) goldenCase {
	return goldenCase{
		Strategy:     strat.Name(),
		Streamed:     true,
		TrainConfigs: res.TrainConfigs,
		TrainY:       res.TrainY,
		Selections:   res.Selections,
		Iterations:   res.Iterations,
		RNG:          res.RNGState,
		Stats:        zeroDurations(res.Stats),
		FailedCost:   res.FailedCost,
		GuardCost:    res.GuardCost,
	}
}

// goldenRun executes one cell over src and returns the case plus every
// boundary snapshot (CheckpointEvery = 1).
func goldenRun(t testing.TB, strat Strategy, src pool.Source) (goldenCase, []*Snapshot) {
	t.Helper()
	ev := goldenEvaluator(src.Space())
	var snaps []*Snapshot
	params := goldenParams(func(s *Snapshot) error { snaps = append(snaps, s); return nil })
	res, err := Run(context.Background(), src, ev, strat, params, rng.New(goldenRunSeed), nil)
	if err != nil {
		t.Fatalf("%s: %v", strat.Name(), err)
	}
	mid := snaps[len(snaps)/2]
	gc := resultCase(strat, res)
	gc.SnapshotAt = mid.Iteration
	gc.Snapshot = canonicalSnapshot(t, mid)
	return gc, snaps
}

// assertSameOutcome requires two cells to agree on everything but the
// snapshot: labels, selections, RNG position and telemetry counters.
func assertSameOutcome(t testing.TB, label string, got, want goldenCase) {
	t.Helper()
	got.SnapshotAt, got.Snapshot = want.SnapshotAt, want.Snapshot
	if g, w := marshalGolden(t, []goldenCase{got}), marshalGolden(t, []goldenCase{want}); !bytes.Equal(g, w) {
		t.Fatalf("%s diverged:\n got: %.2000s\nwant: %.2000s", label, g, w)
	}
}

// materialize drains a source into a config slice, the same candidate
// sequence the streamed mode scores lazily.
func materialize(t testing.TB, src pool.Source) []space.Config {
	t.Helper()
	src.Reset()
	d := src.Space().NumParams()
	out := make([]space.Config, 0, src.Len())
	buf := make([]space.Config, 64)
	for i := range buf {
		buf[i] = make(space.Config, d)
	}
	for {
		n := src.Next(buf)
		if n == 0 {
			break
		}
		for _, c := range buf[:n] {
			out = append(out, c.Clone())
		}
	}
	src.Reset()
	return out
}

func marshalGolden(t testing.TB, cases []goldenCase) []byte {
	t.Helper()
	data, err := json.MarshalIndent(cases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestSessionEquivalenceGolden pins every strategy's full run to the
// pre-refactor goldens, and requires the run over the same candidates
// materialized as a pool.Slice to land on the identical outcome.
func TestSessionEquivalenceGolden(t *testing.T) {
	sp := goldenSpace()
	mem := materialize(t, goldenSource(sp))
	var cases []goldenCase
	for _, strat := range goldenStrategies(t) {
		gc, _ := goldenRun(t, strat, goldenSource(sp))
		cases = append(cases, gc)
		sliced, _ := goldenRun(t, strat, pool.NewSlice(sp, mem))
		assertSameOutcome(t, strat.Name()+" over pool.Slice", sliced, gc)
	}
	got := marshalGolden(t, cases)

	if os.Getenv("SESSION_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(sessionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sessionGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", sessionGoldenPath, len(got))
		return
	}

	want, err := os.ReadFile(sessionGoldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with SESSION_GOLDEN_UPDATE=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Locate the first diverging case for a readable failure.
	var wantCases []goldenCase
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatalf("goldens corrupt: %v", err)
	}
	if len(wantCases) != len(cases) {
		t.Fatalf("golden has %d cases, engine produced %d", len(wantCases), len(cases))
	}
	for i := range cases {
		g, w := marshalGolden(t, cases[i:i+1]), marshalGolden(t, wantCases[i:i+1])
		if !bytes.Equal(g, w) {
			t.Errorf("%s diverged from pre-refactor golden:\n got: %.2000s\nwant: %.2000s", cases[i].Strategy, g, w)
		}
	}
	if !t.Failed() {
		t.Fatal("golden bytes differ but no case diverged (formatting drift?)")
	}
}

// TestSessionResumeEveryPrefix proves resumability from every checkpoint
// boundary: for each strategy, resuming from each of the run's
// snapshots must land on exactly the uninterrupted run's result.
func TestSessionResumeEveryPrefix(t *testing.T) {
	sp := goldenSpace()
	for _, strat := range goldenStrategies(t) {
		full, snaps := goldenRun(t, strat, goldenSource(sp))
		for _, snap := range snaps {
			params := goldenParams(nil)
			params.CheckpointEvery = 0
			res, err := Resume(context.Background(), snap, goldenSource(sp), goldenEvaluator(sp), strat, params, nil)
			if err != nil {
				t.Fatalf("%s: resume from iteration %d: %v", strat.Name(), snap.Iteration, err)
			}
			assertSameOutcome(t, fmt.Sprintf("%s: resume from iteration %d", strat.Name(), snap.Iteration), resultCase(strat, res), full)
		}
	}
}

// loadGoldenCells reads the committed golden table keyed by strategy.
func loadGoldenCells(t *testing.T) map[string]goldenCase {
	t.Helper()
	data, err := os.ReadFile(sessionGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCase
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]goldenCase, len(cells))
	for _, c := range cells {
		out[c.Strategy] = c
	}
	return out
}

// loadLegacySnapshot reads a full checkpoint written by the retired
// materialized-pool engine (Streamed unset, membership in Remaining) at
// the golden fixture's mid-run boundary.
func loadLegacySnapshot(t *testing.T, strategy string) *Snapshot {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_v1_"+strings.ToLower(strategy)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streamed || snap.Remaining == nil || snap.Version != snapshotVersion {
		t.Fatalf("%s: fixture is not a legacy materialized checkpoint", strategy)
	}
	return &snap
}

// TestLegacyCheckpointResume: checkpoints the materialized engine wrote
// resume through the single driver — over the same candidates as a
// pool.Slice, or replayed lazily by the source that generated them — and
// land bit-identically on the golden cell of the uninterrupted run.
func TestLegacyCheckpointResume(t *testing.T) {
	sp := goldenSpace()
	golden := loadGoldenCells(t)
	for _, name := range []string{"PWU", "PBUS", "Random"} {
		strat, err := ByName(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]pool.Source{
			"slice":   pool.NewSlice(sp, materialize(t, goldenSource(sp))),
			"uniform": goldenSource(sp),
		}
		for kind, src := range sources {
			params := goldenParams(nil)
			params.CheckpointEvery = 0
			res, err := Resume(context.Background(), loadLegacySnapshot(t, name), src, goldenEvaluator(sp), strat, params, nil)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, kind, err)
			}
			assertSameOutcome(t, name+" legacy resume over "+kind, resultCase(strat, res), golden[name])
		}
	}
}

// TestLegacyCheckpointRejected: a legacy checkpoint must not resume over
// a different pool, nor with a membership list the materialized engine
// could never have written.
func TestLegacyCheckpointRejected(t *testing.T) {
	sp := goldenSpace()
	params := goldenParams(nil)
	params.CheckpointEvery = 0
	resume := func(snap *Snapshot, src pool.Source) error {
		_, err := Resume(context.Background(), snap, src, goldenEvaluator(sp), PWU{Alpha: 0.05}, params, nil)
		return err
	}
	other := pool.NewSlice(sp, materialize(t, pool.NewUniform(sp, goldenPoolSeed+1, goldenPoolSize)))
	if err := resume(loadLegacySnapshot(t, "PWU"), other); err == nil || !strings.Contains(err.Error(), "pool hash") {
		t.Fatalf("wrong pool: %v", err)
	}
	mem := materialize(t, goldenSource(sp))
	swapped := loadLegacySnapshot(t, "PWU")
	swapped.Remaining[3], swapped.Remaining[4] = swapped.Remaining[4], swapped.Remaining[3]
	if err := resume(swapped, pool.NewSlice(sp, mem)); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("non-ascending Remaining: %v", err)
	}
	repeated := loadLegacySnapshot(t, "PWU")
	repeated.Remaining[1] = repeated.Remaining[0]
	if err := resume(repeated, pool.NewSlice(sp, mem)); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("repeated Remaining entry: %v", err)
	}
	outOfRange := loadLegacySnapshot(t, "PWU")
	outOfRange.Remaining[len(outOfRange.Remaining)-1] = goldenPoolSize
	if err := resume(outOfRange, pool.NewSlice(sp, mem)); err == nil || !strings.Contains(err.Error(), "out of pool range") {
		t.Fatalf("out-of-range Remaining entry: %v", err)
	}
}
