package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// assertSameResult requires two runs to be bit-identical in everything
// deterministic: labels, labeled configs, selection records, telemetry
// counters and the final generator stream position.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, want %d", label, got.Iterations, want.Iterations)
	}
	if len(got.TrainY) != len(want.TrainY) {
		t.Fatalf("%s: %d labels, want %d", label, len(got.TrainY), len(want.TrainY))
	}
	for i := range want.TrainY {
		if got.TrainY[i] != want.TrainY[i] {
			t.Fatalf("%s: label %d is %v, want %v", label, i, got.TrainY[i], want.TrainY[i])
		}
		if got.TrainConfigs[i].Key() != want.TrainConfigs[i].Key() {
			t.Fatalf("%s: config %d is %v, want %v", label, i, got.TrainConfigs[i], want.TrainConfigs[i])
		}
	}
	if len(got.Selections) != len(want.Selections) {
		t.Fatalf("%s: %d selection records, want %d", label, len(got.Selections), len(want.Selections))
	}
	for i := range want.Selections {
		g, w := got.Selections[i], want.Selections[i]
		if g.Config.Key() != w.Config.Key() || g.Mu != w.Mu || g.Sigma != w.Sigma || g.Y != w.Y || g.Iteration != w.Iteration {
			t.Fatalf("%s: selection %d is %+v, want %+v", label, i, g, w)
		}
	}
	if got.RNGState != want.RNGState {
		t.Fatalf("%s: final generator state diverged", label)
	}
	gs, ws := zeroDurations(got.Stats), zeroDurations(want.Stats)
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d telemetry events, want %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: telemetry event %d is %+v, want %+v", label, i, gs[i], ws[i])
		}
	}
}

func streamParams() Params {
	return Params{NInit: 6, NBatch: 2, NMax: 18, Forest: smallForest(), RecordSelections: true}
}

// TestRunStreamMatchesRun is the pool-equivalence gate in miniature:
// for every paper strategy (plus the extension baselines), a run
// streaming a lazily generated pool must reproduce the run over the same
// candidates materialized as a pool.Slice bit for bit — same labels,
// same selections, same telemetry counters, same final generator state —
// for every shard size and worker count.
func TestRunStreamMatchesRun(t *testing.T) {
	sp, ev := quadSpace(t)
	const poolSeed, n = 91, 120
	mem := sp.SampleConfigs(rng.New(poolSeed), n)

	strategies := []Strategy{
		PWU{Alpha: 0.05}, PBUS{}, BRS{}, BestPerf{}, MaxU{}, Random{}, CV{}, EI{},
	}
	type variant struct {
		name string
		src  pool.Source
	}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			want, err := Run(context.Background(), pool.NewSlice(sp, mem), ev, strat, streamParams(), rng.New(7), nil)
			if err != nil {
				t.Fatal(err)
			}
			variants := []variant{
				{"uniform", pool.NewUniform(sp, poolSeed, n)},
				{"slice", pool.NewSlice(sp, mem)},
			}
			shards := []int{64, 1024, n}
			workerSet := []int{1, 2, runtime.GOMAXPROCS(0)}
			for _, v := range variants {
				for _, shard := range shards {
					for _, workers := range workerSet {
						p := streamParams()
						p.StreamShard, p.StreamWorkers = shard, workers
						got, err := Run(context.Background(), v.src, ev, strat, p, rng.New(7), nil)
						if err != nil {
							t.Fatal(err)
						}
						assertSameResult(t, fmt.Sprintf("%s src=%s shard=%d workers=%d", strat.Name(), v.name, shard, workers), got, want)
					}
				}
			}
		})
	}
}

// TestRunStreamEnumerationSource drives the engine over a lazily
// enumerated full space — the never-materialized path a 10^7 space uses —
// and requires the run over the materialized enumeration to match it.
func TestRunStreamEnumerationSource(t *testing.T) {
	sp, ev := quadSpace(t)
	src, err := pool.NewEnumeration(sp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), pool.NewSlice(sp, sp.Enumerate()), ev, PWU{Alpha: 0.05}, streamParams(), rng.New(19), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), src, ev, PWU{Alpha: 0.05}, streamParams(), rng.New(19), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "enumeration", got, want)
}

// TestResumeStreamEquivalence: interrupting a run over a lazy source at a
// snapshot boundary and resuming reproduces the uninterrupted run
// exactly.
func TestResumeStreamEquivalence(t *testing.T) {
	sp, ev := quadSpace(t)
	const poolSeed, n = 33, 100
	src := pool.NewUniform(sp, poolSeed, n)

	p := streamParams()
	want, err := Run(context.Background(), src, ev, PWU{Alpha: 0.05}, p, rng.New(5), nil)
	if err != nil {
		t.Fatal(err)
	}

	var snaps []*Snapshot
	p2 := streamParams()
	p2.CheckpointEvery = 2
	p2.Checkpoint = func(s *Snapshot) error { snaps = append(snaps, s); return nil }
	if _, err := Run(context.Background(), src, ev, PWU{Alpha: 0.05}, p2, rng.New(5), nil); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots taken", len(snaps))
	}
	for _, snap := range snaps {
		if !snap.Streamed {
			t.Fatal("run produced a legacy (non-streamed) snapshot")
		}
		got, err := Resume(context.Background(), snap, src, ev, PWU{Alpha: 0.05}, streamParams(), nil)
		if err != nil {
			t.Fatalf("resume from iteration %d: %v", snap.Iteration, err)
		}
		assertSameResult(t, fmt.Sprintf("resume@%d", snap.Iteration), got, want)
	}
}

// TestResumeStreamRejectsMismatches: snapshot/source cross-checks.
func TestResumeStreamRejectsMismatches(t *testing.T) {
	sp, ev := quadSpace(t)
	strat := PWU{Alpha: 0.05}
	snapOf := func(src pool.Source) *Snapshot {
		t.Helper()
		p := streamParams()
		var snap *Snapshot
		p.CheckpointEvery = 1
		p.Checkpoint = func(s *Snapshot) error { snap = s; return nil }
		if _, err := Run(context.Background(), src, ev, strat, p, rng.New(2), nil); err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatal("no snapshot taken")
		}
		return snap
	}
	snap := snapOf(pool.NewUniform(sp, 1, 80))
	if _, err := Resume(context.Background(), snap, pool.NewUniform(sp, 2, 80), ev, strat, streamParams(), nil); err == nil {
		t.Fatal("wrong-seed source accepted")
	}
	if _, err := Resume(context.Background(), snap, pool.NewUniform(sp, 1, 81), ev, strat, streamParams(), nil); err == nil {
		t.Fatal("wrong-size source accepted")
	}
	// A materialized pool is fingerprinted by content: a slice holding
	// different candidates is refused.
	sliceSnap := snapOf(pool.NewSlice(sp, sp.SampleConfigs(rng.New(1), 80)))
	if _, err := Resume(context.Background(), sliceSnap, pool.NewSlice(sp, sp.SampleConfigs(rng.New(3), 80)), ev, strat, streamParams(), nil); err == nil {
		t.Fatal("different-content slice accepted")
	}
}

// TestRunStreamValidation checks the driver's input validation.
func TestRunStreamValidation(t *testing.T) {
	sp, ev := quadSpace(t)
	src := pool.NewUniform(sp, 1, 50)
	r := rng.New(2)
	strat := PWU{Alpha: 0.05}
	if _, err := Run(context.Background(), nil, ev, strat, Params{}, r, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := Run(context.Background(), src, nil, strat, Params{}, r, nil); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	if _, err := Run(context.Background(), src, ev, nil, Params{}, r, nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if _, err := Run(context.Background(), src, ev, strat, Params{}, nil, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := Run(context.Background(), pool.NewUniform(sp, 1, 5), ev, strat, Params{NInit: 10}, r, nil); err == nil {
		t.Fatal("pool smaller than NInit accepted")
	}
	if _, err := Run(context.Background(), src, ev, strat, Params{NMax: 1000}, r, nil); err == nil {
		t.Fatal("NMax beyond pool accepted")
	}
	if _, err := Run(context.Background(), src, ev, strat, Params{NInit: 40, NMax: 20}, r, nil); err == nil {
		t.Fatal("NInit beyond NMax accepted")
	}
}

// TestFetchConfigsSequentialSource: the generation-only fetch path (no
// random access) must return the right configs for repeated and
// out-of-order global indices.
func TestFetchConfigsSequentialSource(t *testing.T) {
	sp, _ := quadSpace(t)
	src := pool.NewUniform(sp, 8, 60) // Uniform has no At — exercises the scan path
	if _, ok := pool.Source(src).(pool.RandomAccess); ok {
		t.Fatal("test premise broken: Uniform gained random access")
	}
	all := make([]space.Config, 0, 60)
	buf := []space.Config{make(space.Config, sp.NumParams())}
	src.Reset()
	for src.Next(buf) == 1 {
		all = append(all, buf[0].Clone())
	}
	e := &Session{sp: sp, src: src, p: Params{StreamShard: 7}.Normalized()}
	globals := []int{59, 0, 17, 17, 3, 58}
	got, err := e.fetchConfigs(globals)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range globals {
		if got[i].Key() != all[g].Key() {
			t.Fatalf("fetch[%d] (global %d) = %v, want %v", i, g, got[i], all[g])
		}
	}
}

// TestStreamCacheEquivalence: the cross-scan score cache is a pure
// performance device — a warm-update streamed run with the cache on (the
// default), at a starvation budget, and fully off must be bit-identical.
func TestStreamCacheEquivalence(t *testing.T) {
	sp, ev := quadSpace(t)
	src := pool.NewUniform(sp, 51, 150)
	run := func(cacheMB int) *Result {
		t.Helper()
		p := streamParams()
		p.WarmUpdate = true
		p.StreamCacheMB = cacheMB
		p.StreamShard = 32
		res, err := Run(context.Background(), src, ev, PWU{Alpha: 0.05}, p, rng.New(9), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(-1) // cache disabled
	assertSameResult(t, "default cache", run(0), want)
	// A starvation budget covers only a prefix of the pool: the rest
	// takes the fresh-score path every scan. Still bit-identical.
	assertSameResult(t, "tiny cache", run(1), want)
}
