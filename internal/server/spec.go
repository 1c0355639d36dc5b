// Package server is the tuning-as-a-service layer: a session manager
// multiplexing many concurrent core.Sessions behind an HTTP/JSON API.
// The caller owns evaluation (the ask-tell inversion of core.Run); the
// server owns the surrogate, acquisition and checkpoint state of every
// session, with admission control, per-tenant quotas, idempotent label
// ingestion, label-guard policing of hostile clients, and crash
// recovery from internal/runstate checkpoints.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/space"
)

// ParamSpec is the wire description of one space parameter. Exactly one
// form applies: Levels (categorical), Values (explicit numeric levels),
// Bool, or Min/Max/Step (integer range).
type ParamSpec struct {
	Name   string    `json:"name"`
	Min    int       `json:"min,omitempty"`
	Max    int       `json:"max,omitempty"`
	Step   int       `json:"step,omitempty"`
	Levels []string  `json:"levels,omitempty"`
	Values []float64 `json:"values,omitempty"`
	Bool   bool      `json:"bool,omitempty"`
}

// errInvalid marks request errors the client caused (HTTP 400).
var errInvalid = errors.New("server: invalid request")

// maxRangeLevels caps the levels one [min,max] range may expand to: no
// more than a request body of maxBodyBytes could list explicitly as
// values, at two bytes ("0,") or more per level. A range is a compact
// spelling of a level list, not a way past the body limit.
const maxRangeLevels = maxBodyBytes / 2

// maxTrees caps a session's surrogate forest size. The tuned default is
// 32 and the tests and perfbench use at most 64, so 16x that leaves
// ample room. Every refit and every pool scan costs time linear in the
// forest size, and a client-chosen size in the billions cannot even be
// allocated: the first refit would panic and wedge the session.
const maxTrees = 1024

// maxPoolSize caps a session's candidate pool. The largest pool the
// repository documents is the 10^7-candidate pool-bench demonstration,
// the tuned default is 4096 and perfbench serves 10^5, so 2^24 (~1.7e7)
// admits all of them. An ask scans every candidate while it holds the
// session lock, so a client-chosen size in the quadrillions would wedge
// the session on its first ask.
const maxPoolSize = 1 << 24

// BuildSpace assembles a space.Space from wire parameter specs.
func BuildSpace(specs []ParamSpec) (*space.Space, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: empty space", errInvalid)
	}
	params := make([]space.Parameter, len(specs))
	for i, ps := range specs {
		switch {
		case len(ps.Levels) > 0:
			params[i] = space.Cat(ps.Name, ps.Levels...)
		case len(ps.Values) > 0:
			params[i] = space.Num(ps.Name, ps.Values...)
		case ps.Bool:
			params[i] = space.Bool(ps.Name)
		default:
			step := ps.Step
			if step <= 0 {
				step = 1
			}
			if ps.Max < ps.Min {
				return nil, fmt.Errorf("%w: parameter %q range [%d,%d] is empty", errInvalid, ps.Name, ps.Min, ps.Max)
			}
			// Count the levels before expanding them; the unsigned
			// difference cannot overflow for Max >= Min.
			if (uint64(ps.Max)-uint64(ps.Min))/uint64(step) >= maxRangeLevels {
				return nil, fmt.Errorf("%w: parameter %q range [%d,%d] step %d has more than %d levels", errInvalid, ps.Name, ps.Min, ps.Max, step, maxRangeLevels)
			}
			params[i] = space.NumRange(ps.Name, ps.Min, ps.Max, step)
		}
	}
	sp, err := space.New(params...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errInvalid, err)
	}
	return sp, nil
}

// SpecFromSpace renders a space back into wire parameter specs —
// categorical and boolean parameters by kind, numeric ones as explicit
// values (lossless for any level spacing).
func SpecFromSpace(sp *space.Space) []ParamSpec {
	specs := make([]ParamSpec, sp.NumParams())
	for i := range specs {
		p := sp.Param(i)
		switch p.Kind {
		case space.Categorical:
			specs[i] = ParamSpec{Name: p.Name, Levels: append([]string(nil), p.Names...)}
		case space.Boolean:
			specs[i] = ParamSpec{Name: p.Name, Bool: true}
		default:
			specs[i] = ParamSpec{Name: p.Name, Values: append([]float64(nil), p.Levels...)}
		}
	}
	return specs
}

// Manifest is the durable identity of a service-managed session: every
// deterministic input needed to rebuild the session's pool source,
// strategy and params after a daemon restart. It is stored verbatim in
// the session's snapshots (core.Snapshot.Service, wire version 2), so a
// checkpoint file alone is sufficient for recovery.
type Manifest struct {
	ID     string      `json:"id"`
	Tenant string      `json:"tenant,omitempty"`
	Space  []ParamSpec `json:"space"`

	// PoolSeed / PoolSize parameterize the uniform candidate source.
	// Serving from a lazy source instead of a materialized pool is the
	// per-session memory bound: state scales with labels taken, never
	// with pool size.
	PoolSeed uint64 `json:"pool_seed"`
	PoolSize int    `json:"pool_size"`

	// Seed feeds the session's loop generator; the whole trajectory is
	// deterministic given it.
	Seed uint64 `json:"seed"`

	Strategy string  `json:"strategy"`
	Alpha    float64 `json:"alpha,omitempty"`

	NInit  int `json:"n_init"`
	NBatch int `json:"n_batch"`
	NMax   int `json:"n_max"`

	// Trees overrides the manager's forest size for this session.
	Trees int `json:"trees,omitempty"`

	// GuardZ/GuardRel/GuardRemeasure configure the label guard policing
	// this session's client (zero Z disables).
	GuardZ         float64 `json:"guard_z,omitempty"`
	GuardRel       float64 `json:"guard_rel,omitempty"`
	GuardRemeasure bool    `json:"guard_remeasure,omitempty"`
}

// encode marshals the manifest for storage in snapshots.
func (m *Manifest) encode() (json.RawMessage, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("server: encoding manifest: %w", err)
	}
	return data, nil
}

// decodeManifest parses a snapshot's service blob.
func decodeManifest(raw json.RawMessage) (*Manifest, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("server: snapshot carries no service manifest")
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("server: decoding manifest: %w", err)
	}
	if m.ID == "" {
		return nil, fmt.Errorf("server: manifest has no session id")
	}
	return &m, nil
}

// seedFor derives a deterministic default seed from a session id, so
// clients that do not pin seeds still get reproducible (and distinct)
// sessions.
func seedFor(id string, salt uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64() ^ salt
}

// guard renders the manifest's guard settings as a core.LabelGuard. The
// server defaults to quarantine: it cannot re-measure on its own, and
// asking a hostile client to re-measure its own lie is only useful when
// the client is merely buggy — GuardRemeasure opts into that mode,
// where re-measurement slots ride the ask-tell queue like any batch.
func (m *Manifest) guard() core.LabelGuard {
	g := core.LabelGuard{Z: m.GuardZ, Rel: m.GuardRel, Action: core.GuardQuarantine}
	if m.GuardRemeasure {
		g.Action = core.GuardRemeasure
	}
	return g
}
