package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/runstate"
	"repro/internal/server"
	"repro/internal/space"
)

// twin is an in-process core.Session built from the same manifest
// inputs the service builds its session from. Sessions are
// deterministic, so every HTTP ask and tell pairs with one twin step
// that selects and absorbs exactly the same configurations and labels.
// With a tracer, the twin's Fitter, Checkpoint, Source and strategy are
// wrapped to time the layers under Session.Ask and Session.Tell.
type twin struct {
	sess  *core.Session
	tr    *tracer
	group string

	// parent is the twin step span the layer spans nest under; the
	// twin is driven by one goroutine, and the scan's own goroutines
	// only touch the atomic counters.
	parent   spanID
	sourceNs atomic.Int64
	seq      int
}

// newTwin mirrors server.Manager's session construction for a session
// created with req (every field explicit) and assigned id. ckpt, when
// non-empty, is the twin's own checkpoint file.
func newTwin(id string, req *server.CreateRequest, ckpt string, tr *tracer, group string) (*twin, error) {
	sp, err := server.BuildSpace(req.Space)
	if err != nil {
		return nil, err
	}
	strat, err := core.ByName(req.Strategy, req.Alpha)
	if err != nil {
		return nil, err
	}
	manifest, err := json.Marshal(server.Manifest{
		ID: id, Tenant: req.Tenant, Space: req.Space,
		PoolSeed: req.PoolSeed, PoolSize: req.PoolSize, Seed: req.Seed,
		Strategy: req.Strategy, Alpha: req.Alpha,
		NInit: req.NInit, NBatch: req.NBatch, NMax: req.NMax, Trees: req.Trees,
	})
	if err != nil {
		return nil, err
	}
	tw := &twin{tr: tr, group: group}
	p := core.Params{
		NInit: req.NInit, NBatch: req.NBatch, NMax: req.NMax,
		Guard:           core.LabelGuard{Action: core.GuardQuarantine},
		CheckpointEvery: 1,
	}
	p.Forest.NumTrees = req.Trees
	if ckpt != "" {
		p.Checkpoint = runstate.FileSink(ckpt)
	}
	var src pool.Source = pool.NewUniform(sp, req.PoolSeed, req.PoolSize)
	if tr != nil {
		src = tw.wrapSource(src)
		ss, ok := strat.(core.StreamStrategy)
		if !ok {
			return nil, fmt.Errorf("strategy %s cannot stream", strat.Name())
		}
		strat = tracedStrategy{StreamStrategy: ss, tw: tw}
		p.Fitter = fitSpan(tr, p.Forest, func() (spanID, string) { return tw.parent, tw.group })
		if p.Checkpoint != nil {
			p.Checkpoint = tw.checkpoint(p.Checkpoint, ckpt)
		}
	}
	sess, err := core.NewSession(core.SessionConfig{
		Source: src, Strategy: strat, Params: p,
		RNG: rng.New(req.Seed), Service: manifest,
	})
	if err != nil {
		return nil, err
	}
	tw.sess = sess
	return tw, nil
}

// ask runs Session.Ask as span core.ask.
func (tw *twin) ask(ctx context.Context) ([]space.Config, error) {
	id, start := tw.tr.open()
	tw.parent = id
	src0 := tw.sourceNs.Load()
	cfgs, err := tw.sess.Ask(ctx)
	tw.tr.close(id, 0, tw.group, "core.ask", start, map[string]int64{
		"seq": int64(tw.seq), "source_ns": tw.sourceNs.Load() - src0,
	})
	return cfgs, err
}

// tell runs Session.Tell as span core.tell.
func (tw *twin) tell(ctx context.Context, labels []core.Label) (*core.TellReport, error) {
	id, start := tw.tr.open()
	tw.parent = id
	rep, err := tw.sess.Tell(ctx, labels)
	tw.tr.close(id, 0, tw.group, "core.tell", start, map[string]int64{"seq": int64(tw.seq)})
	tw.seq++
	return rep, err
}

// fitSpan calls forest.Fit exactly as the default Fitter does, as span
// forest.fit under the parent and group scope returns at call time. The
// model is returned unwrapped: scans type-assert the scorer interfaces
// on it.
func fitSpan(tr *tracer, fc forest.Config, scope func() (spanID, string)) core.Fitter {
	return func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (core.Model, error) {
		id, start := tr.open()
		f, err := forest.Fit(X, y, fs, fc, r)
		parent, group := scope()
		tr.close(id, parent, group, "forest.fit", start, map[string]int64{"samples": int64(len(y))})
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// checkpoint wraps a runstate.FileSink; the file size is read after the
// span ends.
func (tw *twin) checkpoint(sink func(*core.Snapshot) error, path string) func(*core.Snapshot) error {
	return func(s *core.Snapshot) error {
		id, start := tw.tr.open()
		err := sink(s)
		end := tw.tr.now()
		attrs := map[string]int64{}
		if fi, statErr := os.Stat(path); statErr == nil {
			attrs["bytes"] = fi.Size()
		}
		tw.tr.record(span{ID: id, Parent: tw.parent, Group: tw.group, Name: "runstate.checkpoint",
			Start: start, End: end, Attrs: attrs})
		return err
	}
}

// tracedSource times candidate generation. It is wrapped in
// tracedRASource when the source offers random access, so the session
// takes the same fetch path it takes on the bare source.
type tracedSource struct {
	pool.Source
	tw *twin
}

func (s *tracedSource) Next(dst []space.Config) int {
	t0 := time.Now()
	n := s.Source.Next(dst)
	s.tw.sourceNs.Add(int64(time.Since(t0)))
	return n
}

type tracedRASource struct {
	*tracedSource
	ra pool.RandomAccess
}

func (s tracedRASource) At(i int, dst space.Config) {
	t0 := time.Now()
	s.ra.At(i, dst)
	s.tw.sourceNs.Add(int64(time.Since(t0)))
}

func (tw *twin) wrapSource(src pool.Source) pool.Source {
	ts := &tracedSource{Source: src, tw: tw}
	if ra, ok := src.(pool.RandomAccess); ok {
		return tracedRASource{tracedSource: ts, ra: ra}
	}
	return ts
}

// tracedStrategy hands the strategy a PoolStream whose Scan times the
// strategy's per-candidate reduction.
type tracedStrategy struct {
	core.StreamStrategy
	tw *twin
}

func (s tracedStrategy) SelectStream(ps core.PoolStream, nBatch int) ([]int, error) {
	return s.StreamStrategy.SelectStream(tracedStream{PoolStream: ps, tw: s.tw}, nBatch)
}

type tracedStream struct {
	core.PoolStream
	tw *twin
}

// Scan records span pool.scan with the summed time spent inside the
// strategy's consumer (select_ns), in candidate generation (source_ns)
// and the number of candidates streamed. consume is never called
// concurrently, so the plain counters need no synchronisation.
func (ps tracedStream) Scan(consume func(ord int, x []float64, mu, sigma float64)) error {
	tw := ps.tw
	id, start := tw.tr.open()
	src0 := tw.sourceNs.Load()
	var selNs, n int64
	err := ps.PoolStream.Scan(func(ord int, x []float64, mu, sigma float64) {
		t0 := time.Now()
		consume(ord, x, mu, sigma)
		selNs += int64(time.Since(t0))
		n++
	})
	tw.tr.close(id, tw.parent, tw.group, "pool.scan", start, map[string]int64{
		"select_ns": selNs, "source_ns": tw.sourceNs.Load() - src0, "candidates": n,
	})
	return err
}
