package runstate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/space"
)

// fuzzSessionConfig is the session the FuzzSnapshotResume corpus was
// written from: a three-parameter space (two ranges, one categorical), a
// 60-candidate lazy pool, 12 labels and a four-tree forest, small enough
// that a fit-seed snapshot's refit costs next to nothing per exec. The
// source is fresh per call because sources keep a read position.
func fuzzSessionConfig() core.SessionConfig {
	sp := space.MustNew(
		space.NumRange("a", 0, 9, 1),
		space.NumRange("b", 0, 7, 1),
		space.Cat("c", "x", "y", "z"),
	)
	return core.SessionConfig{
		Source:   pool.NewUniform(sp, 5, 60),
		Strategy: core.PWU{Alpha: 0.1},
		Params:   core.Params{NInit: 4, NBatch: 2, NMax: 12, Forest: forest.Config{NumTrees: 4, Workers: 1}},
	}
}

// FuzzSnapshotResume feeds arbitrary checkpoint bytes through the load
// path a restarted process runs — decode, then ResumeSession — and
// requires it never to panic: it returns an error, or a session whose
// snapshot encodes, decodes and resumes to the same model bytes. The
// committed corpus (testdata/fuzz/FuzzSnapshotResume) holds a
// version-1 snapshot, a version-2 one with a service manifest, a
// version-3 fit-seed one and a legacy materialized-pool one (Streamed
// unset, membership in Remaining), all of fuzzSessionConfig.
func FuzzSnapshotResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decode(data, "fuzz input")
		if err != nil {
			return
		}
		s, err := core.ResumeSession(snap, fuzzSessionConfig())
		if err != nil {
			return
		}
		again, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a resumed session: %v", err)
		}
		enc, err := encode(again)
		if err != nil {
			t.Fatalf("encoding the re-snapshot: %v", err)
		}
		back, err := decode(enc, "re-snapshot")
		if err != nil {
			t.Fatalf("decoding the re-snapshot: %v", err)
		}
		rs, err := core.ResumeSession(back, fuzzSessionConfig())
		if err != nil {
			t.Fatalf("resuming the re-snapshot: %v", err)
		}
		first, err1 := json.Marshal(s.Result().Model)
		second, err2 := json.Marshal(rs.Result().Model)
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(first, second) {
			t.Fatalf("resume -> snapshot -> resume changed the model (errors %v, %v)", err1, err2)
		}
	})
}

// TestSnapshotResumeCorpus: every committed FuzzSnapshotResume seed
// resumes — so the fuzzer starts from accepted inputs, not from
// rejections — and together they cover the envelope's four shapes.
func TestSnapshotResumeCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSnapshotResume", "*"))
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]bool{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data := corpusBytes(t, raw)
		snap, err := decode(data, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.ResumeSession(snap, fuzzSessionConfig()); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		switch {
		case !snap.Streamed:
			shapes["legacy"] = true
		case snap.FitSeed != nil:
			shapes["fit seed"] = true
		case snap.Service != nil:
			shapes["service"] = true
		default:
			shapes["model"] = true
		}
	}
	for _, shape := range []string{"legacy", "fit seed", "service", "model"} {
		if !shapes[shape] {
			t.Errorf("no %s snapshot in the corpus", shape)
		}
	}
}

// corpusBytes extracts the single []byte value of a "go test fuzz v1"
// corpus file.
func corpusBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	const header, open = "go test fuzz v1\n", "[]byte("
	body := bytes.TrimSpace(bytes.TrimPrefix(raw, []byte(header)))
	if !bytes.HasPrefix(body, []byte(open)) || !bytes.HasSuffix(body, []byte(")")) {
		t.Fatalf("not a one-[]byte fuzz corpus file: %.40q", raw)
	}
	s, err := strconv.Unquote(string(body[len(open) : len(body)-1]))
	if err != nil {
		t.Fatalf("corpus value: %v", err)
	}
	return []byte(s)
}
