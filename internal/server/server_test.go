package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// testSpace is a small tuning space used across the server tests.
func testSpace() []ParamSpec {
	return []ParamSpec{
		{Name: "a", Min: 0, Max: 9},
		{Name: "b", Min: 0, Max: 7},
		{Name: "c", Levels: []string{"x", "y", "z"}},
	}
}

// testCreate is a deterministic small-session request.
func testCreate(tenant string) *CreateRequest {
	return &CreateRequest{
		Tenant:   tenant,
		Space:    testSpace(),
		PoolSize: 200,
		PoolSeed: 11,
		Seed:     12,
		NInit:    5,
		NBatch:   2,
		NMax:     11,
		Trees:    8,
	}
}

// labelConfigs scores ask responses with a fixed quadratic (parameter
// level indices double as values for the integer ranges).
func labelConfigs(configs [][]int) []core.Label {
	out := make([]core.Label, len(configs))
	for i, c := range configs {
		a, b := float64(c[0]), float64(c[1])
		out[i] = core.Label{Y: (a-4)*(a-4) + (b-2)*(b-2) + 1}
	}
	return out
}

// api wraps an httptest server around a Manager's handler.
type api struct {
	t   *testing.T
	srv *httptest.Server
}

func newAPI(t *testing.T, m *Manager) *api {
	t.Helper()
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return &api{t: t, srv: srv}
}

// do issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func (a *api) do(method, path string, body, out any) int {
	a.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			a.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, a.srv.URL+path, &buf)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := a.srv.Client().Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			a.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// drive runs one session to completion over the API and returns the
// label curve.
func (a *api) drive(id string) []float64 {
	a.t.Helper()
	var curve []float64
	for {
		var ask AskResponse
		if code := a.do("POST", "/sessions/"+id+"/ask", nil, &ask); code != http.StatusOK {
			a.t.Fatalf("ask: status %d", code)
		}
		if ask.Done {
			return curve
		}
		labels := labelConfigs(ask.Configs)
		for _, l := range labels {
			curve = append(curve, l.Y)
		}
		var tell TellResponse
		code := a.do("POST", "/sessions/"+id+"/tell",
			&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labels}, &tell)
		if code != http.StatusOK {
			a.t.Fatalf("tell: status %d", code)
		}
		if tell.Done {
			return curve
		}
	}
}

// TestServerSessionLifecycle drives a full session over HTTP: create,
// ask/tell to completion, model inspection, delete.
func TestServerSessionLifecycle(t *testing.T) {
	m := NewManager(Config{})
	a := newAPI(t, m)

	var created CreateResponse
	if code := a.do("POST", "/sessions", testCreate("acme"), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.NInit != 5 || created.NBatch != 2 || created.NMax != 11 || created.Strategy != "PWU" {
		t.Fatalf("create response: %+v", created)
	}

	curve := a.drive(created.ID)
	if len(curve) != 11 {
		t.Fatalf("drove %d labels, want NMax=11", len(curve))
	}

	var info SessionInfo
	if code := a.do("GET", "/sessions/"+created.ID+"/model", nil, &info); code != http.StatusOK {
		t.Fatalf("model: status %d", code)
	}
	if !info.Done || info.Samples != 11 || info.Phase != "done" {
		t.Fatalf("final info: %+v", info)
	}
	best := math.Inf(1)
	for _, y := range curve {
		best = math.Min(best, y)
	}
	if info.BestY != best {
		t.Fatalf("best_y = %v, want %v", info.BestY, best)
	}

	var stats Stats
	a.do("GET", "/stats", nil, &stats)
	if stats.Created != 1 || stats.Completed != 1 || stats.Labels != 11 || stats.Active != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	if code := a.do("DELETE", "/sessions/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete failed")
	}
	if code := a.do("POST", "/sessions/"+created.ID+"/ask", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ask after delete: status %d", code)
	}
}

// TestServerDeterministicTrajectory: two sessions created with identical
// manifests produce identical curves — the service preserves the
// engine's determinism.
func TestServerDeterministicTrajectory(t *testing.T) {
	m := NewManager(Config{})
	a := newAPI(t, m)
	var c1, c2 CreateResponse
	a.do("POST", "/sessions", testCreate("t1"), &c1)
	a.do("POST", "/sessions", testCreate("t2"), &c2)
	curve1, curve2 := a.drive(c1.ID), a.drive(c2.ID)
	if len(curve1) != len(curve2) {
		t.Fatalf("curve lengths differ: %d vs %d", len(curve1), len(curve2))
	}
	for i := range curve1 {
		if curve1[i] != curve2[i] {
			t.Fatalf("curves diverge at %d: %v vs %v", i, curve1[i], curve2[i])
		}
	}
}

// TestServerIdempotentTell: retransmitting the same tell replays the
// cached response without double-applying; a stale cursor conflicts and
// reports the expected position.
func TestServerIdempotentTell(t *testing.T) {
	m := NewManager(Config{})
	a := newAPI(t, m)
	var created CreateResponse
	a.do("POST", "/sessions", testCreate(""), &created)
	id := created.ID

	var ask AskResponse
	a.do("POST", "/sessions/"+id+"/ask", nil, &ask)
	labels := labelConfigs(ask.Configs)

	req := &TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labels}
	var first, replay TellResponse
	if code := a.do("POST", "/sessions/"+id+"/tell", req, &first); code != http.StatusOK {
		t.Fatalf("tell: status %d", code)
	}
	// Exact retransmission (e.g. client retried after a lost response).
	if code := a.do("POST", "/sessions/"+id+"/tell", req, &replay); code != http.StatusOK {
		t.Fatalf("replay: status %d", code)
	}
	if replay != first {
		t.Fatalf("replay diverged: %+v vs %+v", replay, first)
	}
	var info SessionInfo
	a.do("GET", "/sessions/"+id+"/model", nil, &info)
	if info.Samples != 5 {
		t.Fatalf("replay double-applied: %d samples", info.Samples)
	}

	// A third identical tell at a now-stale cursor: conflict with the
	// expected position in the body.
	var conflict struct {
		Error       string `json:"error"`
		ExpectBatch *int   `json:"expect_batch"`
		ExpectStep  *int   `json:"expect_step"`
	}
	stale := &TellRequest{Batch: 99, Step: 0, Labels: labels[:1]}
	if code := a.do("POST", "/sessions/"+id+"/tell", stale, &conflict); code != http.StatusConflict {
		t.Fatalf("stale tell: status %d", code)
	}
	if conflict.ExpectBatch == nil || conflict.ExpectStep == nil {
		t.Fatalf("conflict body lacks expected cursor: %+v", conflict)
	}

	var stats Stats
	a.do("GET", "/stats", nil, &stats)
	if stats.TellReplays != 1 || stats.TellConflicts != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestServerRejectsHostileLabels: non-finite labels are rejected with
// 400 before touching the session, and guard quarantine polices wild
// outliers from a lying client.
func TestServerRejectsHostileLabels(t *testing.T) {
	m := NewManager(Config{})
	a := newAPI(t, m)
	req := testCreate("")
	req.GuardZ = 2
	var created CreateResponse
	a.do("POST", "/sessions", req, &created)
	id := created.ID

	var ask AskResponse
	a.do("POST", "/sessions/"+id+"/ask", nil, &ask)
	// JSON itself cannot carry NaN/Inf, so a hostile client sends an
	// overflowing number — rejected at decode with 400.
	resp, err := http.Post(a.srv.URL+"/sessions/"+id+"/tell", "application/json",
		bytes.NewBufferString(`{"batch":0,"step":0,"labels":[{"y":1e999}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing label: status %d", resp.StatusCode)
	}
	// The non-finite guard itself (for non-JSON transports) rejects
	// before the session sees anything.
	s, err := m.get(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := s.tell(context.Background(), m,
			&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: []core.Label{{Y: y}}}); err == nil {
			t.Fatalf("non-finite label %v accepted", y)
		}
	}

	// Finish the cold start honestly, then lie wildly: the guard
	// quarantines the outlier instead of training on it.
	a.do("POST", "/sessions/"+id+"/tell",
		&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labelConfigs(ask.Configs)}, nil)
	var loop AskResponse
	a.do("POST", "/sessions/"+id+"/ask", nil, &loop)
	lies := make([]core.Label, len(loop.Configs))
	for i := range lies {
		lies[i] = core.Label{Y: 1e12}
	}
	var tell TellResponse
	a.do("POST", "/sessions/"+id+"/tell",
		&TellRequest{Batch: loop.Batch, Step: loop.Step, Labels: lies}, &tell)
	if tell.Quarantined == 0 {
		t.Fatalf("outliers not quarantined: %+v", tell)
	}
	var info SessionInfo
	a.do("GET", "/sessions/"+id+"/model", nil, &info)
	if info.GuardStats.Quarantined == 0 {
		t.Fatalf("guard telemetry missing: %+v", info)
	}
	var stats Stats
	a.do("GET", "/stats", nil, &stats)
	if stats.BadLabels != 2 || stats.GuardQuarantined == 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestServerAdmissionControl: the session cap and per-tenant quota both
// reject with 429.
func TestServerAdmissionControl(t *testing.T) {
	m := NewManager(Config{MaxSessions: 3, MaxPerTenant: 2})
	a := newAPI(t, m)
	if code := a.do("POST", "/sessions", testCreate("acme"), nil); code != http.StatusCreated {
		t.Fatal("first create failed")
	}
	if code := a.do("POST", "/sessions", testCreate("acme"), nil); code != http.StatusCreated {
		t.Fatal("second create failed")
	}
	if code := a.do("POST", "/sessions", testCreate("acme"), nil); code != http.StatusTooManyRequests {
		t.Fatalf("tenant quota not enforced: %d", code)
	}
	if code := a.do("POST", "/sessions", testCreate("other"), nil); code != http.StatusCreated {
		t.Fatal("other tenant blocked by acme's quota")
	}
	if code := a.do("POST", "/sessions", testCreate("third"), nil); code != http.StatusTooManyRequests {
		t.Fatalf("capacity not enforced: %d", code)
	}
	var stats Stats
	a.do("GET", "/stats", nil, &stats)
	if stats.QuotaRejections != 1 || stats.CapacityRejections != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestServerCrashRecovery: kill the manager (drop it), adopt the
// checkpoints with a fresh one on the same directory, and finish the
// session — the combined curve matches an uninterrupted run, because
// the resumed generator re-derives the batch that died with the
// process.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	// Reference: uninterrupted run on an identical manifest.
	ref := NewManager(Config{})
	refAPI := newAPI(t, ref)
	var refCreated CreateResponse
	refAPI.do("POST", "/sessions", testCreate("acme"), &refCreated)
	want := refAPI.drive(refCreated.ID)

	// Interrupted run: one full cold batch plus one loop batch, then
	// the process "dies" (we simply stop using the manager).
	m1 := NewManager(Config{CheckpointDir: dir})
	a1 := newAPI(t, m1)
	var created CreateResponse
	a1.do("POST", "/sessions", testCreate("acme"), &created)
	id := created.ID
	var got []float64
	for i := 0; i < 2; i++ {
		var ask AskResponse
		a1.do("POST", "/sessions/"+id+"/ask", nil, &ask)
		labels := labelConfigs(ask.Configs)
		for _, l := range labels {
			got = append(got, l.Y)
		}
		a1.do("POST", "/sessions/"+id+"/tell",
			&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labels}, nil)
	}

	// Plant a corrupt checkpoint next to the good one: recovery must
	// skip it, not die. And a temp file a crash left between a
	// checkpoint write and its rename: recovery must remove it.
	if err := os.WriteFile(filepath.Join(dir, "s-corrupt.ckpt"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, id+".ckpt.tmp-123456")
	if err := os.WriteFile(stale, []byte(`{"version":3,"iter`), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	m2 := NewManager(Config{CheckpointDir: dir, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if m2.Stats().RecoverySkips != 1 {
		t.Fatalf("corrupt checkpoint not counted as skipped: %+v", m2.Stats())
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint temp file survived recovery: %v", err)
	}
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "removed stale "+filepath.Base(stale)) }) {
		t.Fatalf("stale temp file removal not logged: %q", logs)
	}
	// The recovered forest, refitted from the checkpoint's fit seed, is
	// the live one byte for byte.
	if live, recovered := sessionForest(t, m1, id), sessionForest(t, m2, id); !bytes.Equal(live, recovered) {
		t.Fatalf("recovered forest differs from the live one (%d vs %d bytes)", len(recovered), len(live))
	}
	a2 := newAPI(t, m2)
	got = append(got, a2.drive(id)...)

	if len(got) != len(want) {
		t.Fatalf("recovered curve has %d labels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered curve diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Fresh ids do not collide with recovered ones.
	var next CreateResponse
	a2.do("POST", "/sessions", testCreate("acme"), &next)
	if next.ID == id {
		t.Fatalf("fresh id collided with recovered session %s", id)
	}
}

// sessionForest is the wire form of a managed session's live forest.
func sessionForest(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	s, err := m.get(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.sess.Result().Model)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerRecoveredTellReplay: a tell whose response the crash ate is
// retransmitted to the recovered manager. The labels are already inside
// the checkpoint the new manager adopted, so the session's cursor sits
// one batch ahead of the retransmission — which must replay a
// synthesized success, not 409, or the at-least-once client wedges
// against its own applied tell.
func TestServerRecoveredTellReplay(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Config{CheckpointDir: dir})
	a1 := newAPI(t, m1)
	var created CreateResponse
	a1.do("POST", "/sessions", testCreate("acme"), &created)
	id := created.ID
	var ask AskResponse
	a1.do("POST", "/sessions/"+id+"/ask", nil, &ask)
	labels := labelConfigs(ask.Configs)
	tellReq := &TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labels}
	var first TellResponse
	if code := a1.do("POST", "/sessions/"+id+"/tell", tellReq, &first); code != http.StatusOK {
		t.Fatalf("tell: status %d", code)
	}
	if !first.Completed {
		t.Fatalf("batch not completed: %+v", first)
	}
	// The crash: the applied, checkpointed tell's response never reached
	// the client. A second manager adopts the checkpoint.
	m2 := NewManager(Config{CheckpointDir: dir})
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	a2 := newAPI(t, m2)
	var replay TellResponse
	if code := a2.do("POST", "/sessions/"+id+"/tell", tellReq, &replay); code != http.StatusOK {
		t.Fatalf("retransmitted tell: status %d, want 200 replay", code)
	}
	if !replay.Completed || replay.Batch != tellReq.Batch || replay.Consumed != len(labels) {
		t.Fatalf("replay response: %+v", replay)
	}
	if m2.Stats().TellReplays != 1 {
		t.Fatalf("replay not counted: %+v", m2.Stats())
	}
	// A genuinely misaligned tell still conflicts.
	bad := &TellRequest{Batch: tellReq.Batch + 5, Step: 0, Labels: labels}
	if code := a2.do("POST", "/sessions/"+id+"/tell", bad, nil); code != http.StatusConflict {
		t.Fatalf("misaligned tell: status %d, want 409", code)
	}
	// And the session keeps going to completion from where it stood.
	a2.drive(id)

	// Same crash one batch later: the loop-batch shape, where the
	// checkpointed iteration counter sits one past the retransmission.
	dir2 := t.TempDir()
	m3 := NewManager(Config{CheckpointDir: dir2})
	a3 := newAPI(t, m3)
	a3.do("POST", "/sessions", testCreate("acme"), &created)
	id = created.ID
	var loopTell *TellRequest
	for i := 0; i < 2; i++ {
		a3.do("POST", "/sessions/"+id+"/ask", nil, &ask)
		loopTell = &TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labelConfigs(ask.Configs)}
		a3.do("POST", "/sessions/"+id+"/tell", loopTell, nil)
	}
	m4 := NewManager(Config{CheckpointDir: dir2})
	if n, err := m4.Recover(); err != nil || n != 1 {
		t.Fatalf("recover loop case: n=%d err=%v", n, err)
	}
	a4 := newAPI(t, m4)
	if code := a4.do("POST", "/sessions/"+id+"/tell", loopTell, &replay); code != http.StatusOK {
		t.Fatalf("retransmitted loop tell: status %d, want 200 replay", code)
	}
	if !replay.Completed || replay.Batch != loopTell.Batch {
		t.Fatalf("loop replay response: %+v", replay)
	}
	a4.drive(id)
}

// TestServerDrainPersistsBoundaries: Drain writes a checkpoint for a
// session whose cadence would otherwise have skipped the latest
// boundary.
func TestServerDrainPersistsBoundaries(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{CheckpointDir: dir, CheckpointEvery: 1000})
	a := newAPI(t, m)
	var created CreateResponse
	a.do("POST", "/sessions", testCreate(""), &created)
	var ask AskResponse
	a.do("POST", "/sessions/"+created.ID+"/ask", nil, &ask)
	a.do("POST", "/sessions/"+created.ID+"/tell",
		&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labelConfigs(ask.Configs)}, nil)

	m.Drain(context.Background())
	m2 := NewManager(Config{CheckpointDir: dir})
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover after drain: n=%d err=%v", n, err)
	}
}

// TestServerRecoveryRespectsCapacity: more checkpoints than MaxSessions
// adopts only up to the cap.
func TestServerRecoveryRespectsCapacity(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Config{CheckpointDir: dir})
	a1 := newAPI(t, m1)
	for i := 0; i < 3; i++ {
		var created CreateResponse
		a1.do("POST", "/sessions", testCreate(fmt.Sprintf("t%d", i)), &created)
		var ask AskResponse
		a1.do("POST", "/sessions/"+created.ID+"/ask", nil, &ask)
		a1.do("POST", "/sessions/"+created.ID+"/tell",
			&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labelConfigs(ask.Configs)}, nil)
	}
	m2 := NewManager(Config{CheckpointDir: dir, MaxSessions: 2})
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d, want cap 2", n)
	}
}

// TestBuildSpaceRoundTrip: SpecFromSpace(BuildSpace(specs)) preserves
// the space, and invalid specs are rejected.
func TestBuildSpaceRoundTrip(t *testing.T) {
	specs := []ParamSpec{
		{Name: "threads", Min: 1, Max: 64, Step: 4},
		{Name: "opt", Levels: []string{"O0", "O2", "O3"}},
		{Name: "simd", Bool: true},
		{Name: "tile", Values: []float64{8, 16, 32, 128}},
	}
	sp, err := BuildSpace(specs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := BuildSpace(SpecFromSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	wantCard, _ := sp.Cardinality()
	gotCard, _ := back.Cardinality()
	if gotCard != wantCard || back.NumParams() != sp.NumParams() {
		t.Fatalf("round trip changed the space: %d/%d vs %d/%d",
			gotCard, back.NumParams(), wantCard, sp.NumParams())
	}
	if _, err := BuildSpace(nil); err == nil {
		t.Fatal("empty space accepted")
	}
	if _, err := BuildSpace([]ParamSpec{{Name: "bad", Min: 5, Max: 1}}); err == nil {
		t.Fatal("empty range accepted")
	}
}
