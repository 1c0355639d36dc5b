package server

import (
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/runstate"
)

// TestServerHugeNMaxCreate: a create whose n_max and pool_size are far
// beyond memory must neither panic nor leak its admission slot. The
// session state grows with labels taken, so nothing is sized by n_max
// up front; a one-slot manager still admits a valid session afterwards.
func TestServerHugeNMaxCreate(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	a := newAPI(t, m)
	hostile := json.RawMessage(`{"space":[{"name":"x","min":0,"max":7}],"pool_size":1125899906842624,"n_max":1125899906842624}`)
	var created CreateResponse
	switch code := a.do("POST", "/sessions", hostile, &created); code {
	case http.StatusCreated:
		if code := a.do("DELETE", "/sessions/"+created.ID, nil, nil); code != http.StatusOK && code != http.StatusNoContent {
			t.Fatalf("delete hostile session: status %d", code)
		}
	case http.StatusInternalServerError:
		t.Fatalf("hostile create: status %d", code)
	}
	if code := a.do("POST", "/sessions", testCreate("acme"), nil); code != http.StatusCreated {
		t.Fatalf("valid create after hostile one: status %d", code)
	}
}

// TestServerHugeTreesRejected: a forest size no refit could allocate is
// refused at create time (before any label is applied) and again when a
// checkpoint carrying it is recovered, so no session can wedge on it.
func TestServerHugeTreesRejected(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{MaxSessions: 1, CheckpointDir: dir})
	a := newAPI(t, m)
	req := testCreate("acme")
	req.Trees = 1 << 50
	if code := a.do("POST", "/sessions", req, nil); code != http.StatusBadRequest {
		t.Fatalf("create with trees=2^50: status %d, want 400", code)
	}
	req.Trees = maxTrees
	var created CreateResponse
	if code := a.do("POST", "/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create with trees=%d: status %d", maxTrees, code)
	}

	// Checkpoint one boundary, then raise the manifest's forest size
	// past the ceiling in place: recovery must skip the session.
	var ask AskResponse
	a.do("POST", "/sessions/"+created.ID+"/ask", nil, &ask)
	if code := a.do("POST", "/sessions/"+created.ID+"/tell",
		&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labelConfigs(ask.Configs)}, nil); code != http.StatusOK {
		t.Fatalf("tell: status %d", code)
	}
	path := filepath.Join(dir, created.ID+".ckpt")
	snap, err := runstate.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(snap.Service)
	if err != nil {
		t.Fatal(err)
	}
	man.Trees = 1 << 50
	if snap.Service, err = man.encode(); err != nil {
		t.Fatal(err)
	}
	if err := runstate.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{CheckpointDir: dir})
	if n, err := m2.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want the hostile checkpoint skipped", n, err)
	}
	if m2.Stats().RecoverySkips != 1 {
		t.Fatalf("hostile checkpoint not counted as skipped: %+v", m2.Stats())
	}
}

// TestServerAlphaOutOfRangeRejected: PWU's α outside (0, 1] — which
// would rank candidates by σ·μ⁶ or by an overflowed power — is refused
// at create time with 400 without leaking the admission slot, α = 1 is
// admitted, and a checkpoint whose manifest carries a hostile α is
// skipped at recovery.
func TestServerAlphaOutOfRangeRejected(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{MaxSessions: 1, CheckpointDir: dir})
	a := newAPI(t, m)
	for _, alpha := range []float64{7, 1e300, 1 + 1e-15} {
		req := testCreate("acme")
		req.Alpha = alpha
		if code := a.do("POST", "/sessions", req, nil); code != http.StatusBadRequest {
			t.Fatalf("create with alpha=%v: status %d, want 400", alpha, code)
		}
	}
	req := testCreate("acme")
	req.Alpha = 1
	var created CreateResponse
	if code := a.do("POST", "/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create with alpha=1: status %d, want 201", code)
	}

	var ask AskResponse
	a.do("POST", "/sessions/"+created.ID+"/ask", nil, &ask)
	if code := a.do("POST", "/sessions/"+created.ID+"/tell",
		&TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: labelConfigs(ask.Configs)}, nil); code != http.StatusOK {
		t.Fatalf("tell: status %d", code)
	}
	path := filepath.Join(dir, created.ID+".ckpt")
	snap, err := runstate.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(snap.Service)
	if err != nil {
		t.Fatal(err)
	}
	man.Alpha = 7
	if snap.Service, err = man.encode(); err != nil {
		t.Fatal(err)
	}
	if err := runstate.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{CheckpointDir: dir})
	if n, err := m2.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want the hostile checkpoint skipped", n, err)
	}
	if m2.Stats().RecoverySkips != 1 {
		t.Fatalf("hostile checkpoint not counted as skipped: %+v", m2.Stats())
	}
}

// TestServerHugePoolSizeRejected: a pool no ask could scan while it
// holds the session lock is refused at create time with 400, before any
// ask runs, and the refusal does not leak the one admission slot: a
// create at the largest admitted pool size succeeds afterwards.
func TestServerHugePoolSizeRejected(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	a := newAPI(t, m)
	hostile := json.RawMessage(`{"space":[{"name":"x","min":0,"max":7}],"pool_size":1125899906842624,"n_max":20}`)
	if code := a.do("POST", "/sessions", hostile, nil); code != http.StatusBadRequest {
		t.Fatalf("create with pool_size=2^50: status %d, want 400", code)
	}
	req := testCreate("acme")
	req.PoolSize = maxPoolSize
	if code := a.do("POST", "/sessions", req, nil); code != http.StatusCreated {
		t.Fatalf("create with pool_size=%d after the hostile one: status %d, want 201", maxPoolSize, code)
	}
}

// TestServerCreateRequestErrorsAre400: every create the request alone
// makes unservable — n_init above n_max, n_max above pool_size, an
// empty or malformed space, an unknown strategy — is refused with 400
// and an errInvalid error, not a 500, and no refusal leaks the one
// admission slot.
func TestServerCreateRequestErrorsAre400(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	a := newAPI(t, m)
	for name, body := range map[string]string{
		"n_init above n_max":  `{"space":[{"name":"x","min":0,"max":7}],"n_init":50,"n_max":20}`,
		"n_max above pool":    `{"space":[{"name":"x","min":0,"max":7}],"pool_size":10,"n_max":20}`,
		"empty space":         `{"space":[],"n_max":20}`,
		"duplicate parameter": `{"space":[{"name":"x","min":0,"max":7},{"name":"x","bool":true}],"n_max":20}`,
		"unknown strategy":    `{"space":[{"name":"x","min":0,"max":7}],"strategy":"Oracle","n_max":20}`,
	} {
		var body400 struct{ Error string }
		if code := a.do("POST", "/sessions", json.RawMessage(body), &body400); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, code, body400.Error)
		}
		if !strings.HasPrefix(body400.Error, errInvalid.Error()) {
			t.Fatalf("%s: error %q does not wrap errInvalid", name, body400.Error)
		}
	}
	if code := a.do("POST", "/sessions", testCreate("acme"), nil); code != http.StatusCreated {
		t.Fatalf("valid create after the refused ones: status %d, want 201", code)
	}
}

// TestBuildSpaceRangeBounds: a [min,max] range is expanded only when its
// level count fits what the request body could have listed explicitly.
// Oversized ranges fail fast without allocating their levels, and a
// range whose next step would wrap past math.MaxInt stops at its last
// reachable level.
func TestBuildSpaceRangeBounds(t *testing.T) {
	hostile := []ParamSpec{
		{Name: "big", Min: 0, Max: 1_000_000_000_000},
		{Name: "full", Min: math.MinInt, Max: math.MaxInt},
		{Name: "edge", Min: 0, Max: maxRangeLevels},
	}
	for _, ps := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := BuildSpace([]ParamSpec{ps})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: range [%d,%d] step %d accepted", ps.Name, ps.Min, ps.Max, ps.Step)
		}
		if !isClientError(err) {
			t.Fatalf("%s: %v not classified as a client error", ps.Name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
			t.Fatalf("%s: rejecting the range allocated %d bytes", ps.Name, alloc)
		}
		if elapsed > time.Second {
			t.Fatalf("%s: rejecting the range took %v", ps.Name, elapsed)
		}
	}

	// The largest accepted range expands to exactly maxRangeLevels levels.
	sp, err := BuildSpace([]ParamSpec{{Name: "edge", Min: 0, Max: maxRangeLevels - 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.Param(0).NumLevels(); n != maxRangeLevels {
		t.Fatalf("edge range has %d levels, want %d", n, maxRangeLevels)
	}
	// Small ranges whose next step would wrap past math.MaxInt expand
	// to their reachable levels and stop.
	for _, c := range []struct {
		ps   ParamSpec
		want int
	}{
		{ParamSpec{Name: "top", Min: math.MaxInt - 2<<20 - 5, Max: math.MaxInt, Step: 1 << 20}, 3},
		{ParamSpec{Name: "leap", Min: math.MaxInt - 10, Max: math.MaxInt, Step: 1 << 40}, 1},
	} {
		sp, err := BuildSpace([]ParamSpec{c.ps})
		if err != nil {
			t.Fatalf("%s: %v", c.ps.Name, err)
		}
		if n := sp.Param(0).NumLevels(); n != c.want {
			t.Fatalf("%s range has %d levels, want %d", c.ps.Name, n, c.want)
		}
	}

	// Over HTTP the oversized range is a 400, and the manager admits a
	// valid session afterwards.
	a := newAPI(t, NewManager(Config{MaxSessions: 1}))
	body := json.RawMessage(`{"space":[{"name":"x","min":0,"max":1000000000000}]}`)
	if code := a.do("POST", "/sessions", body, nil); code != http.StatusBadRequest {
		t.Fatalf("create with a 10^12-level range: status %d, want 400", code)
	}
	if code := a.do("POST", "/sessions", testCreate("acme"), nil); code != http.StatusCreated {
		t.Fatalf("valid create after hostile one: status %d", code)
	}
}
