package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
)

// TestSnapshotVersionTolerance pins the snapshot version contract:
// version-1 (plain run) and version-2 (service manifest) snapshots both
// round-trip through JSON and resume; an unknown version fails with the
// typed *SnapshotVersionError from every resume entry point instead of
// being silently misparsed.
func TestSnapshotVersionTolerance(t *testing.T) {
	ctx := context.Background()
	sp := goldenSpace()

	// A version-1 snapshot from a plain run.
	poolCfgs := sp.SampleConfigs(rng.New(401), 80)
	ev := goldenEvaluator(sp)
	var v1 *Snapshot
	_, err := Run(ctx, sliceOf(sp, poolCfgs), ev, PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 2, NMax: 15, Forest: smallForest(),
			CheckpointEvery: 1, Checkpoint: func(s *Snapshot) error { v1 = s; return nil }},
		rng.New(402), nil)
	if err != nil || v1 == nil {
		t.Fatalf("setup run: err=%v snap=%v", err, v1)
	}
	if v1.Version != 1 || v1.Service != nil {
		t.Fatalf("plain run wrote version %d service %q, want version 1 and no service", v1.Version, v1.Service)
	}

	// JSON round trip preserves the version and resumes.
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	var rt Snapshot
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ctx, &rt, sliceOf(sp, poolCfgs), goldenEvaluator(sp), PWU{Alpha: 0.1},
		Params{NInit: 5, NBatch: 2, NMax: 15, Forest: smallForest()}, nil); err != nil {
		t.Fatalf("v1 round-trip resume: %v", err)
	}

	// A version-2 snapshot from a session carrying a service manifest.
	service := json.RawMessage(`{"id":"s-1","tenant":"acme"}`)
	s, label := sessionFixture(t, sessionParams(), service)
	cold, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}
	v2, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 {
		t.Fatalf("service session wrote version %d, want 2", v2.Version)
	}
	data, err = json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	var rt2 Snapshot
	if err := json.Unmarshal(data, &rt2); err != nil {
		t.Fatal(err)
	}
	if string(rt2.Service) != string(service) {
		t.Fatalf("service manifest lost in round trip: %q", rt2.Service)
	}
	src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
	rs, err := ResumeSession(&rt2, SessionConfig{
		Source: src, Strategy: PWU{Alpha: 0.1}, Params: sessionParams(),
	})
	if err != nil {
		t.Fatalf("v2 resume: %v", err)
	}
	// The manifest rides along into the resumed session and its next
	// snapshots.
	if string(rs.Service()) != string(service) {
		t.Fatalf("resumed session lost the manifest: %q", rs.Service())
	}
	snap2, err := rs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version != 2 || string(snap2.Service) != string(service) {
		t.Fatalf("re-snapshot of recovered session: version=%d service=%q", snap2.Version, snap2.Service)
	}

	// Unknown versions: typed rejection everywhere.
	for _, v := range []int{0, 3, 99} {
		bad := *v1
		bad.Version = v
		var verr *SnapshotVersionError
		if _, err := Resume(ctx, &bad, sliceOf(sp, poolCfgs), ev, PWU{Alpha: 0.1}, Params{NMax: 15}, nil); !errors.As(err, &verr) || verr.Version != v {
			t.Fatalf("Resume(version=%d): %v", v, err)
		}
		badService := *v2
		badService.Version = v
		if _, err := Resume(ctx, &badService, src, ev, PWU{Alpha: 0.1}, Params{NMax: 15}, nil); !errors.As(err, &verr) {
			t.Fatalf("Resume(service, version=%d): %v", v, err)
		}
		if _, err := ResumeSession(&bad, SessionConfig{Source: sliceOf(sp, poolCfgs), Strategy: PWU{Alpha: 0.1}, Params: Params{NMax: 15}}); !errors.As(err, &verr) {
			t.Fatalf("ResumeSession(version=%d): %v", v, err)
		}
	}
}
