package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/rng"
)

// versionConfig is the fixture session of the version tests: the golden
// space and pool, 15 labels in batches of two, cold refits or warm
// updates, with or without a service manifest.
func versionConfig(warm bool, service json.RawMessage) SessionConfig {
	return SessionConfig{
		Source:   goldenSource(goldenSpace()),
		Strategy: PWU{Alpha: 0.1},
		Params:   Params{NInit: 5, NBatch: 2, NMax: 15, Forest: smallForest(), WarmUpdate: warm},
		RNG:      rng.New(402),
		Service:  service,
	}
}

// modelJSON is the wire form of a session's live model.
func modelJSON(t *testing.T, s *Session) []byte {
	t.Helper()
	model, _, err := s.marshalModel()
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// driveVersioned runs cfg to completion and returns every boundary
// snapshot with the wire form of the live model it was taken from.
func driveVersioned(t *testing.T, cfg SessionConfig) (snaps []*Snapshot, live [][]byte) {
	t.Helper()
	var s *Session
	cfg.Params.CheckpointEvery = 1
	cfg.Params.Checkpoint = func(snap *Snapshot) error {
		snaps = append(snaps, snap)
		live = append(live, modelJSON(t, s))
		return nil
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ev := goldenEvaluator(goldenSpace())
	for !s.Done() {
		batch, err := s.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]Label, len(batch))
		for i, c := range batch {
			if labels[i].Y, err = ev.Evaluate(ctx, c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Tell(ctx, labels); err != nil {
			t.Fatal(err)
		}
	}
	return snaps, live
}

// jsonRoundTrip returns snap as it reads back from its JSON encoding.
func jsonRoundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var rt Snapshot
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	return &rt
}

// TestSnapshotVersionTolerance pins the snapshot version contract: a
// cold-refit model is recorded as its fit seed (version 3, with or
// without a service manifest), any other model is serialized (version 1
// for a plain run, 2 with a service manifest), every version round-trips
// through JSON and resumes to a session that writes the same version
// again, a model record that does not fit its version fails with the
// typed *SnapshotModelError, and an unknown version fails with the typed
// *SnapshotVersionError from every resume entry point instead of being
// silently misparsed.
func TestSnapshotVersionTolerance(t *testing.T) {
	service := json.RawMessage(`{"id":"s-1","tenant":"acme"}`)
	cases := []struct {
		name    string
		warm    bool
		service json.RawMessage
		version int
	}{
		{"cold", false, nil, snapshotVersionFitSeed},
		{"cold+service", false, service, snapshotVersionFitSeed},
		{"warm", true, nil, snapshotVersion},
		{"warm+service", true, service, snapshotVersionService},
	}
	last := map[string]*Snapshot{}
	for _, tc := range cases {
		cfg := versionConfig(tc.warm, tc.service)
		snaps, _ := driveVersioned(t, cfg)
		snap := snaps[len(snaps)-1]
		last[tc.name] = snap
		seeded := tc.version == snapshotVersionFitSeed
		if snap.Version != tc.version || (snap.FitSeed != nil) != seeded || (snap.Model != nil) == seeded ||
			string(snap.Service) != string(tc.service) {
			t.Fatalf("%s: wrote version %d fit_seed %v model %d bytes service %q; want version %d",
				tc.name, snap.Version, snap.FitSeed, len(snap.Model), snap.Service, tc.version)
		}
		// The cold start of a warm session is a cold fit too.
		if snaps[0].Version < snapshotVersionFitSeed {
			t.Fatalf("%s: cold-start snapshot wrote version %d", tc.name, snaps[0].Version)
		}

		rt := jsonRoundTrip(t, snap)
		if rt.Version != snap.Version || string(rt.Service) != string(tc.service) ||
			(seeded && *rt.FitSeed != *snap.FitSeed) {
			t.Fatalf("%s: JSON round trip changed the envelope: version %d service %q", tc.name, rt.Version, rt.Service)
		}
		cfg.RNG = nil
		rs, err := ResumeSession(rt, cfg)
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.name, err)
		}
		again, err := rs.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if again.Version != tc.version || string(again.Service) != string(tc.service) {
			t.Fatalf("%s: re-snapshot of the resumed session: version %d service %q", tc.name, again.Version, again.Service)
		}
	}

	// A model record that does not fit its version.
	v1, v3 := last["warm"], last["cold"]
	cfg := versionConfig(false, nil)
	mismatched := map[string]*Snapshot{}
	both := *v3
	both.Model = v1.Model
	mismatched["v3 with model and fit_seed"] = &both
	neither := *v3
	neither.FitSeed = nil
	mismatched["v3 with neither"] = &neither
	nullModel := neither
	nullModel.Model = json.RawMessage("null")
	mismatched["v3 with a null model only"] = &nullModel
	modelOnly := *v3
	modelOnly.FitSeed, modelOnly.Model = nil, v1.Model
	mismatched["v3 with a model only"] = &modelOnly
	seededV1 := *v1
	seededV1.FitSeed = v3.FitSeed
	mismatched["v1 with fit_seed"] = &seededV1
	bare := *v1
	bare.Model = nil
	mismatched["v1 without a model"] = &bare
	for name, snap := range mismatched {
		var merr *SnapshotModelError
		if _, err := ResumeSession(snap, cfg); !errors.As(err, &merr) || merr.Version != snap.Version {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// Unknown versions: typed rejection everywhere.
	ctx := context.Background()
	for _, v := range []int{0, 4, 99} {
		for name, snap := range last {
			bad := *snap
			bad.Version = v
			var verr *SnapshotVersionError
			if _, err := Resume(ctx, &bad, goldenSource(goldenSpace()), goldenEvaluator(goldenSpace()), PWU{Alpha: 0.1}, Params{NMax: 15}, nil); !errors.As(err, &verr) || verr.Version != v {
				t.Fatalf("Resume(%s, version=%d): %v", name, v, err)
			}
			if _, err := ResumeSession(&bad, cfg); !errors.As(err, &verr) || verr.Version != v {
				t.Fatalf("ResumeSession(%s, version=%d): %v", name, v, err)
			}
		}
	}
}

// TestSnapshotResumeRoundTrip: resuming a snapshot, snapshotting the
// resumed session and resuming that again rebuilds the same model bytes
// — from a fit-seed snapshot (whose refit must also equal the live
// model it stands for), from a legacy model-carrying snapshot of a
// cold-refit session (whose re-snapshot must still carry the model until
// the session refits), from the retired materialized engine's v1
// checkpoints and from a warm-update session.
func TestSnapshotResumeRoundTrip(t *testing.T) {
	// roundTrip resumes snap, re-snapshots, resumes again and returns the
	// re-snapshot and the resumed model bytes.
	roundTrip := func(name string, snap *Snapshot, cfg SessionConfig) (*Snapshot, []byte) {
		t.Helper()
		cfg.RNG = nil
		rs, err := ResumeSession(jsonRoundTrip(t, snap), cfg)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		again, err := rs.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rs2, err := ResumeSession(jsonRoundTrip(t, again), cfg)
		if err != nil {
			t.Fatalf("%s: resume of the re-snapshot: %v", name, err)
		}
		first, second := modelJSON(t, rs), modelJSON(t, rs2)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: resume -> snapshot -> resume changed the model bytes", name)
		}
		return again, first
	}

	for _, service := range []json.RawMessage{nil, json.RawMessage(`{"id":"s-9"}`)} {
		cfg := versionConfig(false, service)
		snaps, live := driveVersioned(t, cfg)
		for i, snap := range snaps {
			again, rebuilt := roundTrip("fit seed", snap, cfg)
			if !bytes.Equal(rebuilt, live[i]) {
				t.Fatalf("iteration %d: refit from the fit seed differs from the live model", snap.Iteration)
			}
			if again.Version != snapshotVersionFitSeed || *again.FitSeed != *snap.FitSeed {
				t.Fatalf("iteration %d: re-snapshot lost the fit seed: version %d", snap.Iteration, again.Version)
			}

			// What the engine wrote before fit seeds: the same boundary
			// with the model serialized.
			legacy := *snap
			legacy.FitSeed, legacy.Model = nil, live[i]
			legacy.Version = snapshotVersion
			if service != nil {
				legacy.Version = snapshotVersionService
			}
			again, loaded := roundTrip("legacy", &legacy, cfg)
			if !bytes.Equal(loaded, live[i]) || again.FitSeed != nil || !bytes.Equal(again.Model, live[i]) ||
				again.Version != legacy.Version {
				t.Fatalf("iteration %d: legacy v%d re-snapshot: version %d fit_seed %v, model kept %v",
					snap.Iteration, legacy.Version, again.Version, again.FitSeed, bytes.Equal(again.Model, live[i]))
			}
		}
	}

	// The retired materialized engine's checkpoints carry their model.
	for _, name := range []string{"PWU", "PBUS", "Random"} {
		strat, err := ByName(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		snap := loadLegacySnapshot(t, name)
		cfg := SessionConfig{Source: goldenSource(goldenSpace()), Strategy: strat, Params: goldenParams(nil)}
		again, loaded := roundTrip("legacy "+name, snap, cfg)
		if again.FitSeed != nil || !bytes.Equal(again.Model, loaded) || !bytes.Equal(loaded, snap.Model) {
			t.Fatalf("legacy %s: re-snapshot does not carry the checkpoint's model", name)
		}
	}

	// A warm session's updated models are carried, not refitted.
	cfg := versionConfig(true, nil)
	snaps, live := driveVersioned(t, cfg)
	for i, snap := range snaps[1:] {
		again, loaded := roundTrip("warm", snap, cfg)
		if !bytes.Equal(loaded, live[i+1]) || again.FitSeed != nil || !bytes.Equal(again.Model, snap.Model) {
			t.Fatalf("warm iteration %d: resumed model differs from the live one", snap.Iteration)
		}
	}
}
