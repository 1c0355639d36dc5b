// Package space models tunable parameter spaces: the cross product of a
// set of named parameters, each with a finite list of levels.
//
// This is the repository's representation of the search problems the paper
// tunes over — SPAPT compilation parameters (Table I), kripke run
// parameters (Table II) and hypre solver parameters (Table III). A point
// in a space is a Config: one chosen level index per parameter.
//
// Parameters come in three kinds:
//
//   - Numeric: ordered numeric levels (tile sizes, unroll factors,
//     process counts). Surrogate models may exploit the ordering.
//   - Categorical: unordered named levels (kripke layouts, hypre
//     coarsening schemes). Models must not assume an ordering.
//   - Boolean: a two-level convenience kind (scalar replacement on/off),
//     encoded numerically as 0/1.
package space

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Kind classifies a parameter's level structure.
type Kind int

// The three parameter kinds. See the package comment.
const (
	Numeric Kind = iota
	Categorical
	Boolean
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Boolean:
		return "boolean"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parameter is one tunable dimension of a space.
type Parameter struct {
	Name string
	Kind Kind

	// Levels holds the numeric level values for Numeric parameters,
	// ascending. For Boolean it is {0, 1}. Unused for Categorical.
	Levels []float64

	// Names holds the level names for Categorical parameters. Unused
	// for Numeric and Boolean.
	Names []string
}

// NumLevels returns the number of levels the parameter can take.
func (p Parameter) NumLevels() int {
	if p.Kind == Categorical {
		return len(p.Names)
	}
	return len(p.Levels)
}

// LevelString renders level index i human-readably.
func (p Parameter) LevelString(i int) string {
	switch p.Kind {
	case Categorical:
		return p.Names[i]
	case Boolean:
		if p.Levels[i] != 0 {
			return "true"
		}
		return "false"
	default:
		return strconv.FormatFloat(p.Levels[i], 'g', -1, 64)
	}
}

// Num constructs a Numeric parameter. Levels must be strictly ascending.
func Num(name string, levels ...float64) Parameter {
	return Parameter{Name: name, Kind: Numeric, Levels: levels}
}

// NumRange constructs a Numeric parameter with integer levels
// lo, lo+step, ..., up to and including hi when reachable. step must be
// positive.
func NumRange(name string, lo, hi, step int) Parameter {
	var levels []float64
	for v := lo; v <= hi; v += step {
		levels = append(levels, float64(v))
		// Stop before v += step passes hi: near math.MaxInt it would
		// wrap negative and the loop would never end. The unsigned
		// difference is exact for any v <= hi.
		if uint64(hi)-uint64(v) < uint64(step) {
			break
		}
	}
	return Num(name, levels...)
}

// Cat constructs a Categorical parameter from its level names.
func Cat(name string, names ...string) Parameter {
	return Parameter{Name: name, Kind: Categorical, Names: names}
}

// Bool constructs a Boolean parameter with levels false (0) and true (1).
func Bool(name string) Parameter {
	return Parameter{Name: name, Kind: Boolean, Levels: []float64{0, 1}}
}

// Space is an immutable cross product of parameters.
type Space struct {
	params []Parameter
	index  map[string]int
}

// New validates the parameters and builds a Space. Names must be unique
// and non-empty; every parameter needs at least one level; Numeric levels
// must be strictly ascending.
func New(params ...Parameter) (*Space, error) {
	if len(params) == 0 {
		return nil, errors.New("space: no parameters")
	}
	index := make(map[string]int, len(params))
	for i, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("space: parameter %d has empty name", i)
		}
		if _, dup := index[p.Name]; dup {
			return nil, fmt.Errorf("space: duplicate parameter %q", p.Name)
		}
		if p.NumLevels() == 0 {
			return nil, fmt.Errorf("space: parameter %q has no levels", p.Name)
		}
		switch p.Kind {
		case Numeric, Boolean:
			for j := 1; j < len(p.Levels); j++ {
				if p.Levels[j] <= p.Levels[j-1] {
					return nil, fmt.Errorf("space: parameter %q levels not strictly ascending", p.Name)
				}
			}
		case Categorical:
			seen := make(map[string]bool, len(p.Names))
			for _, nm := range p.Names {
				if seen[nm] {
					return nil, fmt.Errorf("space: parameter %q has duplicate level %q", p.Name, nm)
				}
				seen[nm] = true
			}
		default:
			return nil, fmt.Errorf("space: parameter %q has invalid kind %d", p.Name, p.Kind)
		}
		index[p.Name] = i
	}
	return &Space{params: append([]Parameter(nil), params...), index: index}, nil
}

// MustNew is New but panics on error; intended for statically-known
// benchmark space definitions.
func MustNew(params ...Parameter) *Space {
	s, err := New(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumParams returns the dimensionality of the space.
func (s *Space) NumParams() int { return len(s.params) }

// Param returns parameter i.
func (s *Space) Param(i int) Parameter { return s.params[i] }

// ByName looks a parameter up by name.
func (s *Space) ByName(name string) (Parameter, bool) {
	i, ok := s.index[name]
	if !ok {
		return Parameter{}, false
	}
	return s.params[i], true
}

// IndexOf returns the position of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// LogCardinality returns log10 of the number of distinct configurations.
// The spaces in this repo range up to ~10^38, beyond uint64, so the
// logarithm is the robust representation.
func (s *Space) LogCardinality() float64 {
	acc := 0.0
	for _, p := range s.params {
		acc += math.Log10(float64(p.NumLevels()))
	}
	return acc
}

// Cardinality returns the exact number of configurations if it fits in an
// int64, with ok=false otherwise.
func (s *Space) Cardinality() (n int64, ok bool) {
	n = 1
	for _, p := range s.params {
		l := int64(p.NumLevels())
		if n > math.MaxInt64/l {
			return 0, false
		}
		n *= l
	}
	return n, true
}

// Config is a point in a space: one level index per parameter, in
// parameter order.
type Config []int

// Clone returns a copy of the config.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Key returns a compact string key usable for deduplication maps.
func (c Config) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Validate checks that the config indexes valid levels of s.
func (s *Space) Validate(c Config) error {
	if len(c) != len(s.params) {
		return fmt.Errorf("space: config has %d entries, space has %d parameters", len(c), len(s.params))
	}
	for i, v := range c {
		if v < 0 || v >= s.params[i].NumLevels() {
			return fmt.Errorf("space: parameter %q level index %d out of [0,%d)", s.params[i].Name, v, s.params[i].NumLevels())
		}
	}
	return nil
}

// Value returns the numeric value of parameter i under config c: the
// level value for Numeric/Boolean parameters and the level index for
// Categorical ones.
func (s *Space) Value(c Config, i int) float64 {
	p := s.params[i]
	if p.Kind == Categorical {
		return float64(c[i])
	}
	return p.Levels[c[i]]
}

// ValueByName is Value addressed by parameter name; it panics if the name
// is unknown (benchmark cost models address parameters statically).
func (s *Space) ValueByName(c Config, name string) float64 {
	i, ok := s.index[name]
	if !ok {
		panic("space: unknown parameter " + name)
	}
	return s.Value(c, i)
}

// LevelByName returns the raw level index of the named parameter.
func (s *Space) LevelByName(c Config, name string) int {
	i, ok := s.index[name]
	if !ok {
		panic("space: unknown parameter " + name)
	}
	return c[i]
}

// NameOf returns the display string of parameter i's level under c.
func (s *Space) NameOf(c Config, i int) string {
	return s.params[i].LevelString(c[i])
}

// String renders c as "name=value" pairs.
func (s *Space) String(c Config) string {
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.Name)
		b.WriteByte('=')
		b.WriteString(p.LevelString(c[i]))
	}
	return b.String()
}

// SampleConfig draws a uniform random configuration.
func (s *Space) SampleConfig(r *rng.RNG) Config {
	c := make(Config, len(s.params))
	for i, p := range s.params {
		c[i] = r.Intn(p.NumLevels())
	}
	return c
}

// SampleConfigs draws n uniform configurations with replacement. With the
// very large kernel spaces duplicates are vanishingly rare; with the small
// application spaces (kripke has only a few thousand points) duplicates
// are expected and mirror the paper's "sample 10,000 configurations"
// protocol.
func (s *Space) SampleConfigs(r *rng.RNG, n int) []Config {
	out := make([]Config, n)
	for i := range out {
		out[i] = s.SampleConfig(r)
	}
	return out
}

// Enumerate lists every configuration of the space in odometer order. It
// panics if the space has more than 1<<22 points; callers should check
// Cardinality first for anything that could be large (and use Iter to
// stream such spaces instead of materializing them).
func (s *Space) Enumerate() []Config {
	card, ok := s.Cardinality()
	if !ok || card > 1<<22 {
		panic("space: Enumerate on a space that is too large")
	}
	out := make([]Config, 0, card)
	it := s.Iter()
	cur := make(Config, len(s.params))
	for it.Next(cur) {
		out = append(out, cur.Clone())
	}
	return out
}

// FeatureKind tells a learner how to treat an encoded feature column.
type FeatureKind int

// Feature encodings: FeatNumeric columns are ordered, FeatCategorical
// columns hold category indices with no ordering.
const (
	FeatNumeric FeatureKind = iota
	FeatCategorical
)

// Feature describes one column of the model's design matrix.
type Feature struct {
	Name          string
	Kind          FeatureKind
	NumCategories int // only for FeatCategorical
}

// Features returns the model-facing description of the encoded columns,
// one per parameter: Numeric/Boolean parameters become FeatNumeric
// columns carrying the level value; Categorical parameters become
// FeatCategorical columns carrying the level index.
func (s *Space) Features() []Feature {
	fs := make([]Feature, len(s.params))
	for i, p := range s.params {
		if p.Kind == Categorical {
			fs[i] = Feature{Name: p.Name, Kind: FeatCategorical, NumCategories: len(p.Names)}
		} else {
			fs[i] = Feature{Name: p.Name, Kind: FeatNumeric}
		}
	}
	return fs
}

// Encode maps a config to its model feature vector (see Features).
func (s *Space) Encode(c Config) []float64 {
	x := make([]float64, len(s.params))
	for i := range s.params {
		x[i] = s.Value(c, i)
	}
	return x
}

// EncodeAll encodes a batch of configs into a fresh matrix.
func (s *Space) EncodeAll(cs []Config) [][]float64 {
	xs := make([][]float64, len(cs))
	for i, c := range cs {
		xs[i] = s.Encode(c)
	}
	return xs
}
