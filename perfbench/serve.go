package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/space"
)

// serveSpec sizes the sessions of a serve workload.
type serveSpec struct {
	name                                 string
	poolSize, nInit, nBatch, nMax, trees int
	warmPool, warmNMax                   int // the set-up's warm-up session
}

// serveProblems gives each closed-loop client its own tenant and SPAPT
// space; labels come from the problem's model, with no think time.
var serveProblems = []string{"adi", "atax"}

// The two serve workloads share the daemon and the clients and differ in
// where a session's time goes:
//   - serve-scan: a 10^5-candidate lazy pool and short runs, so an ask
//     is dominated by the full-pool scoring scan;
//   - serve-refit: a 2000-candidate pool, batches of one and longer runs,
//     so every tell refits a growing forest and fsyncs a snapshot while
//     the scan stays cheap.
var (
	serveScan  = serveSpec{name: "serve-scan", poolSize: 100000, nInit: 10, nBatch: 2, nMax: 40, trees: 32, warmPool: 20000, warmNMax: 20}
	serveRefit = serveSpec{name: "serve-refit", poolSize: 2000, nInit: 10, nBatch: 1, nMax: 100, trees: 32, warmPool: 2000, warmNMax: 40}
)

func init() {
	for _, s := range []serveSpec{serveScan, serveRefit} {
		s := s
		register(&workload{
			name: s.name,
			setup: func(o *opts, dir string, tr *tracer) (env, error) {
				return startServe(o, s, dir, tr)
			},
			layers: serveLayers,
		})
	}
}

// Request headers that link a handler span to the client span that
// caused it. Only traced passes set them.
const (
	hdrSpan  = "Perfbench-Span"
	hdrGroup = "Perfbench-Group"
	hdrOp    = "Perfbench-Op"
)

// traceHandler times Manager.Handler() per request as span server.<op>,
// parented to the client span named in the request headers.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id, start := tr.open()
		h.ServeHTTP(w, r)
		tr.close(id, spanID(parent), r.Header.Get(hdrGroup), "server."+r.Header.Get(hdrOp), start, nil)
	})
}

// serveEnv is an in-process tuned: a session manager with a checkpoint
// directory serving Handler() on loopback HTTP, plus its clients.
type serveEnv struct {
	o       *opts
	spec    serveSpec
	dir     string
	tr      *tracer
	srv     *http.Server
	served  chan error
	base    string
	clients []*client
}

func startServe(o *opts, spec serveSpec, dir string, tr *tracer) (*serveEnv, error) {
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		return nil, err
	}
	mgr := server.NewManager(server.Config{CheckpointDir: ckpt, Trees: spec.trees})
	if _, err := mgr.Recover(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := mgr.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	e := &serveEnv{o: o, spec: spec, dir: dir, tr: tr, srv: &http.Server{Handler: h},
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { e.served <- e.srv.Serve(ln) }()
	for i, name := range serveProblems {
		p, err := bench.ByName(name)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, &client{
			idx: i, env: e, prob: p, tenant: fmt.Sprintf("tenant-%d", i),
			space: server.SpecFromSpace(p.Space()),
			hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
		})
	}
	// Warm-up: one small session per client, driven to Done, so
	// connections, code paths and the heap are warm before timing.
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			req := c.request(spec.warmPool, spec.warmNMax, o.unitSeed("warm", i))
			rec := c.session(context.Background(), fmt.Sprintf("warm%d", i), req, o.unitSeed("warm-label", i), time.Time{}, nil, &clientRun{})
			if !rec.done {
				errs[i] = fmt.Errorf("warm-up session of client %d did not complete: %v", i, rec.err)
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	<-e.served
	for _, c := range e.clients {
		c.hc.CloseIdleConnections()
	}
	_ = os.RemoveAll(e.dir)
}

// client is one closed-loop tenant: it runs sessions back to back until
// the deadline.
type client struct {
	idx    int
	env    *serveEnv
	prob   bench.Problem
	tenant string
	space  []server.ParamSpec
	hc     *http.Client
}

// request builds a creation request with every field explicit, so the
// service derives nothing from its own session ids.
func (c *client) request(poolSize, nMax int, seed uint64) *server.CreateRequest {
	s := c.env.spec
	return &server.CreateRequest{
		Tenant: c.tenant, Space: c.space,
		PoolSize: poolSize, PoolSeed: rng.Mix(seed, 1) | 1, Seed: rng.Mix(seed, 2) | 1,
		Strategy: "PWU", Alpha: 0.05,
		NInit: s.nInit, NBatch: s.nBatch, NMax: nMax, Trees: s.trees,
	}
}

// clientRun accumulates one client's measurements over a pass.
type clientRun struct {
	asks, tells []float64 // round trips, ms
	labels      int64
	attempted   int64
	failed      int64
	sessions    []*sessionRec
}

// sessionRec is one session as the client saw it.
type sessionRec struct {
	key     string
	id      string
	req     *server.CreateRequest
	configs [][]int
	ys      []float64
	done    bool          // reached Done with n_max labels
	open    bool          // abandoned at the deadline, still live
	dur     time.Duration // create to Done
	err     error
	twinErr error
}

// output is the session's canonical output: its labelled set in order.
func (r *sessionRec) output() string {
	b, _ := json.Marshal(struct {
		C [][]int
		Y []float64
	}{r.configs, r.ys})
	return string(b)
}

// call issues one HTTP request. Every non-2xx status and transport error
// counts as a failed operation.
func (c *client) call(cr *clientRun, method, path string, body, out any, group, op string, seq int) (time.Duration, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, c.env.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	tr := c.env.tr
	var id spanID
	var spanStart time.Duration
	if tr != nil && group != "" {
		id, spanStart = tr.open()
		req.Header.Set(hdrSpan, strconv.FormatUint(uint64(id), 10))
		req.Header.Set(hdrGroup, group)
		req.Header.Set(hdrOp, op)
	}
	cr.attempted++
	start := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rt := time.Since(start)
	if tr != nil && group != "" {
		tr.close(id, 0, group, "client."+op, spanStart, map[string]int64{
			"seq": int64(seq), "req_bytes": int64(len(payload)), "resp_bytes": int64(len(data)),
		})
	}
	if err != nil {
		cr.failed++
		return rt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		cr.failed++
		return rt, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			cr.failed++
			return rt, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return rt, nil
}

// session drives one session from creation to Done, or until the
// deadline (a zero deadline never expires). With tw set the twin is
// stepped after every HTTP step and must select the same batch.
func (c *client) session(ctx context.Context, key string, req *server.CreateRequest, labelSeed uint64, deadline time.Time, tr *tracer, cr *clientRun) *sessionRec {
	rec := &sessionRec{key: key, req: req}
	cr.sessions = append(cr.sessions, rec)
	group := ""
	if tr != nil {
		group = key
	}
	ev := bench.Evaluator(c.prob, rng.New(labelSeed))
	start := time.Now()
	var created server.CreateResponse
	if _, rec.err = c.call(cr, "POST", "/sessions", req, &created, group, "create", 0); rec.err != nil {
		return rec
	}
	rec.id = created.ID
	var tw *twin
	if tr != nil {
		ckpt := filepath.Join(c.env.dir, "twin-"+created.ID+".ckpt")
		if tw, rec.err = newTwin(created.ID, req, ckpt, tr, group); rec.err != nil {
			return rec
		}
	}
	base := "/sessions/" + created.ID
	for seq := 0; ; seq++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			rec.open = true
			return rec
		}
		var ask server.AskResponse
		rt, err := c.call(cr, "POST", base+"/ask", nil, &ask, group, "ask", seq)
		if err != nil {
			rec.err = err
			c.abandon(cr, rec)
			return rec
		}
		cr.asks = append(cr.asks, float64(rt)/1e6)
		if ask.Done {
			break
		}
		if tw != nil {
			cfgs, err := tw.ask(ctx)
			if err == nil && !sameConfigs(cfgs, ask.Configs) {
				err = fmt.Errorf("step %d: twin selected %v, service %v", seq, cfgs, ask.Configs)
			}
			if err != nil && rec.twinErr == nil {
				rec.twinErr = err
			}
		}
		labels := make([]core.Label, len(ask.Configs))
		for i, cfg := range ask.Configs {
			y, err := ev.Evaluate(ctx, space.Config(cfg))
			if err != nil {
				rec.err = err
				c.abandon(cr, rec)
				return rec
			}
			labels[i] = core.Label{Y: y}
		}
		var told server.TellResponse
		rt, err = c.call(cr, "POST", base+"/tell",
			&server.TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labels}, &told, group, "tell", seq)
		if err != nil {
			rec.err = err
			c.abandon(cr, rec)
			return rec
		}
		cr.tells = append(cr.tells, float64(rt)/1e6)
		cr.labels += int64(told.Consumed)
		for i, cfg := range ask.Configs {
			rec.configs = append(rec.configs, cfg)
			rec.ys = append(rec.ys, labels[i].Y)
		}
		if tw != nil && rec.twinErr == nil {
			if _, err := tw.tell(ctx, labels); err != nil {
				rec.twinErr = fmt.Errorf("step %d: twin tell: %w", seq, err)
			}
		}
		if told.Done {
			break
		}
	}
	rec.dur = time.Since(start)
	var info server.SessionInfo
	if _, rec.err = c.call(cr, "GET", base+"/model", nil, &info, "", "", 0); rec.err != nil {
		return rec
	}
	switch {
	case !info.Done || info.Samples != req.NMax || len(rec.ys) != req.NMax:
		rec.err = fmt.Errorf("ended with done=%v, %d samples on the service and %d told, want %d",
			info.Done, info.Samples, len(rec.ys), req.NMax)
	case info.BestY != minOf(rec.ys):
		rec.err = fmt.Errorf("service best %v, told minimum %v", info.BestY, minOf(rec.ys))
	case tw != nil && rec.twinErr == nil:
		rec.twinErr = twinAgrees(tw.sess, rec)
	}
	if _, err := c.call(cr, "DELETE", base, nil, nil, "", "", 0); err != nil && rec.err == nil {
		rec.err = err
	}
	rec.done = rec.err == nil
	return rec
}

// abandon drops a session that failed mid-run.
func (c *client) abandon(cr *clientRun, rec *sessionRec) {
	if rec.id != "" {
		_, _ = c.call(cr, "DELETE", "/sessions/"+rec.id, nil, nil, "", "", 0)
	}
}

// twinAgrees checks the twin's labelled set against the client's record.
func twinAgrees(sess *core.Session, rec *sessionRec) error {
	res := sess.Result()
	if !sess.Done() || len(res.TrainY) != len(rec.ys) {
		return fmt.Errorf("twin done=%v with %d labels, service %d", sess.Done(), len(res.TrainY), len(rec.ys))
	}
	for i := range rec.ys {
		if !slices.Equal(res.TrainConfigs[i], rec.configs[i]) || res.TrainY[i] != rec.ys[i] {
			return fmt.Errorf("label %d differs from the twin's", i)
		}
	}
	return nil
}

// replayTwin rebuilds a completed session in process from its manifest
// inputs and checks it selects exactly the batches the service did.
func replayTwin(ctx context.Context, rec *sessionRec) error {
	tw, err := newTwin(rec.id, rec.req, "", nil, "")
	if err != nil {
		return err
	}
	for pos := 0; pos < len(rec.ys); {
		cfgs, err := tw.sess.Ask(ctx)
		if err != nil {
			return err
		}
		end := pos + len(cfgs)
		if end > len(rec.ys) || !sameConfigs(cfgs, rec.configs[pos:end]) {
			return fmt.Errorf("twin batch at label %d differs from the service's", pos)
		}
		labels := make([]core.Label, len(cfgs))
		for i := range labels {
			labels[i] = core.Label{Y: rec.ys[pos+i]}
		}
		if _, err := tw.sess.Tell(ctx, labels); err != nil {
			return err
		}
		pos = end
	}
	return twinAgrees(tw.sess, rec)
}

func sameConfigs(a []space.Config, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// run drives every client closed-loop until the deadline: a client
// starts sessions back to back and stops at its first step past the
// deadline, once it has completed a session. Sessions cut by the
// deadline stay open until the live heap has been measured.
func (e *serveEnv) run(ctx context.Context, deadline time.Time) (*passResult, error) {
	res := &passResult{outputs: map[string]string{}, samples: map[string][]float64{}}
	runs := make([]*clientRun, len(e.clients))
	mark := markMem()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			cr := &clientRun{}
			runs[i] = cr
			// A client's first session is never cut, so even a window
			// shorter than a (traced) session completes one per client.
			cut := time.Time{}
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				key := fmt.Sprintf("c%d/s%d", i, k)
				req := c.request(e.spec.poolSize, e.spec.nMax, e.o.unitSeed("session", i, k))
				if c.session(ctx, key, req, e.o.unitSeed("label", i, k), cut, e.tr, cr).done {
					cut = deadline
				}
			}
		}(i, c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.memDelta(mark)
	res.heapMB = liveHeapMB()

	var replay *sessionRec
	for i, cr := range runs {
		c := e.clients[i]
		res.labels += cr.labels
		res.samples["ask_rt_ms"] = append(res.samples["ask_rt_ms"], cr.asks...)
		res.samples["tell_rt_ms"] = append(res.samples["tell_rt_ms"], cr.tells...)
		for _, rec := range cr.sessions {
			switch {
			case rec.open:
				c.abandon(cr, rec)
			case rec.done:
				res.done++
				res.units = append(res.units, rec.dur)
				res.outputs[rec.key] = rec.output()
				if replay == nil {
					replay = rec
				}
			default:
				res.problemf("session %s: %v", rec.key, rec.err)
			}
			if rec.twinErr != nil {
				res.problemf("session %s: twin pairing: %v", rec.key, rec.twinErr)
			}
		}
		res.attempted += cr.attempted
		res.failed += cr.failed
	}
	res.rate = float64(res.labels) / res.wall.Seconds()
	// Untraced passes check one completed session against a twin
	// replayed after the window; traced passes pair every step live.
	if e.tr == nil && replay != nil {
		if err := replayTwin(ctx, replay); err != nil {
			res.problemf("session %s: twin replay: %v", replay.key, err)
		}
	}
	return res, nil
}
