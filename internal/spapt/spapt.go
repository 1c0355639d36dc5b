// Package spapt reproduces the SPAPT search problems (Balaprakash, Wild,
// Norris 2012) the paper models: 12 of the suite's computation kernels,
// each with its configurable compilation parameters — cache tiling, loop
// unroll-jam, register tiling, scalar replacement and vectorization — and
// a cost model that maps a configuration to the execution time of the
// transformed kernel.
//
// The real SPAPT labels a configuration by generating a code variant with
// Orio and timing it on hardware (the paper's Platform A). Neither Orio
// nor the hardware is available here, so TrueTime computes the time
// analytically from the machine model in internal/machine:
//
//   - Cache tiling sets the working set of each loop nest; the nest's
//     memory traffic is served at the bandwidth of the cache level the
//     working set fits in. Untiled (tile = 1) dimensions span the whole
//     problem, spilling the working set to DRAM; tiny tiles fit L1 but
//     pay loop overhead and stride inefficiency. The sweet spot is in
//     the middle — the classic non-monotone tiling surface.
//   - Unroll-jam raises ILP toward the issue width with diminishing
//     returns, but multiplies live values; together with register tiling
//     it can exceed the register file and fall off the spill cliff.
//   - Scalar replacement removes a fraction of the memory traffic
//     proportional to the kernel's data reuse, for a small register cost.
//   - Vectorization speeds up the vectorizable fraction of the compute,
//     gated by the innermost tile being large enough to fill vectors.
//
// The result is a mostly-slow space with a small, interaction-heavy
// high-performance region — the structure the paper's sampling strategies
// are designed to exploit. See DESIGN.md §2 for the substitution
// argument.
package spapt

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/space"
)

// tileValues are the cache-tile sizes of Table I.
var tileValues = []float64{1, 16, 32, 64, 128, 256, 512}

// regTileValues are the register-tile factors of Table I.
var regTileValues = []float64{1, 8, 32}

// spec is the declarative description of one SPAPT kernel.
type spec struct {
	name string
	desc string

	// n is the problem dimension; points is the total iteration count of
	// the kernel (e.g. n² for a matrix-vector kernel, n³ for matmul).
	n      float64
	points float64

	// dims is the loop-nest depth tiling applies to (2 or 3).
	dims int

	// flopsPerPoint / bytesPerPoint characterise the innermost body.
	flopsPerPoint float64
	bytesPerPoint float64

	// wsBytesPerElem is the per-element footprint of one tile of the
	// nest's working set (8 bytes × number of live arrays).
	wsBytesPerElem float64

	// reuseFrac is the fraction of loads removable by scalar
	// replacement (data reuse in registers).
	reuseFrac float64

	// vecFrac is the vectorizable fraction of the compute.
	vecFrac float64

	// baseLive is the number of simultaneously live scalars in the
	// un-transformed body, driving register pressure.
	baseLive float64

	// nTile, nUnroll, nReg are the numbers of tile, unroll-jam and
	// register-tile parameters (SPAPT exposes one per loop).
	nTile, nUnroll, nReg int
}

// Kernel is one SPAPT search problem: a parameter space plus the cost
// model for its transformed variants.
type Kernel struct {
	spec     spec
	space    *space.Space
	platform *machine.Platform

	baselineOnce sync.Once
	baseline     float64
}

// baselineTime returns the untransformed kernel's time (no tiling, no
// unrolling, no register tiling, scalar code) — the fallback charged to
// infeasible variants. Computed once per Kernel; safe for concurrent
// use.
func (k *Kernel) baselineTime() float64 {
	k.baselineOnce.Do(func() {
		c := make(space.Config, k.space.NumParams())
		k.baseline = k.TrueTime(c) // all-zero levels: tile=1, U=1, RT=1, flags off
	})
	return k.baseline
}

// build creates the Kernel for a spec, constructing its parameter space
// in SPAPT's layout: tile parameters T1..Tk, unroll-jam parameters
// U1..Uk, register-tile parameters RT1..RTk, then the two booleans SCREP
// and VEC (compare Table I for the ADI kernel).
func build(s spec) *Kernel {
	var params []space.Parameter
	for i := 1; i <= s.nTile; i++ {
		params = append(params, space.Num(fmt.Sprintf("T%d", i), tileValues...))
	}
	for i := 1; i <= s.nUnroll; i++ {
		params = append(params, space.NumRange(fmt.Sprintf("U%d", i), 1, 31, 1))
	}
	for i := 1; i <= s.nReg; i++ {
		params = append(params, space.Num(fmt.Sprintf("RT%d", i), regTileValues...))
	}
	params = append(params, space.Bool("SCREP"), space.Bool("VEC"))
	return &Kernel{spec: s, space: space.MustNew(params...), platform: machine.PlatformA()}
}

// WithPlatform returns a copy of the kernel whose cost model runs on a
// different platform. The parameter space is unchanged; only the modeled
// hardware differs, so the pair (kernel, kernel.WithPlatform(p)) forms a
// cross-platform transfer problem (the paper's future-work scenario,
// exercised by internal/transfer).
func (k *Kernel) WithPlatform(p *machine.Platform) *Kernel {
	return &Kernel{spec: k.spec, space: k.space, platform: p}
}

// Name returns the kernel's SPAPT name (e.g. "adi").
func (k *Kernel) Name() string { return k.spec.name }

// Description returns a one-line description of the computation.
func (k *Kernel) Description() string { return k.spec.desc }

// Space returns the kernel's compilation-parameter space.
func (k *Kernel) Space() *space.Space { return k.space }

// Platform returns the platform the kernel is modeled on (Platform A).
func (k *Kernel) Platform() *machine.Platform { return k.platform }

// NumParams returns the dimensionality of the search problem.
func (k *Kernel) NumParams() int { return k.space.NumParams() }

// Feasible reports whether configuration c produces a buildable code
// variant. Real SPAPT problems constrain their transformations — a
// source-to-source unroll-jam combined with heavy register tiling can
// blow up the generated code past what the compiler accepts. We model
// the standard constraint: for every loop nest, the unrolled body size
// (unroll factor × register-tile product) must stay within 900
// statements — only the most extreme corner (unroll ≥ 29 with register
// tile 32) is excluded. Infeasible variants do not run; TrueTime charges
// them the untransformed fallback (see there).
func (k *Kernel) Feasible(c space.Config) bool {
	s := &k.spec
	nests := s.nTile / s.dims
	if nests < 1 {
		nests = 1
	}
	for g := 0; g < nests; g++ {
		u := 1.0
		if s.nUnroll > 0 {
			u = k.space.ValueByName(c, fmt.Sprintf("U%d", g%s.nUnroll+1))
		}
		rt := 1.0
		if s.nReg > 0 {
			rt = k.space.ValueByName(c, fmt.Sprintf("RT%d", g%s.nReg+1))
		}
		if u*rt > 900 {
			return false
		}
	}
	return true
}

// TrueTime returns the modeled noise-free execution time in seconds of
// the kernel variant generated by configuration c. Infeasible variants
// (see Feasible) fall back to the untransformed kernel plus a rebuild
// penalty — the auto-tuner's view of a failed variant.
//
// The kernel body is treated as nTile/dims independent loop nests (SPAPT
// kernels contain several statements, each with its own tiling); each
// nest processes an equal share of the points and is costed with the
// machine model, using its own tile group and a round-robin assignment
// of the unroll and register-tile parameters.
func (k *Kernel) TrueTime(c space.Config) float64 {
	s := &k.spec
	p := k.platform

	if !k.Feasible(c) {
		return 1.15 * k.baselineTime()
	}

	screp := k.space.ValueByName(c, "SCREP") != 0
	vec := k.space.ValueByName(c, "VEC") != 0

	nests := s.nTile / s.dims
	if nests < 1 {
		nests = 1
	}
	pointsPerNest := s.points / float64(nests)

	total := 50e-6 // fixed process/loop startup
	for g := 0; g < nests; g++ {
		// --- Tiling: working set and traffic of this nest.
		innerTile := s.n
		wsElems := 1.0
		for d := 0; d < s.dims; d++ {
			ti := g*s.dims + d
			var tile float64
			if ti < s.nTile {
				tile = k.space.ValueByName(c, fmt.Sprintf("T%d", ti+1))
			} else {
				tile = 1
			}
			eff := tile
			if eff <= 1 || eff > s.n {
				eff = s.n // untiled: the dimension spans the problem
			}
			wsElems *= eff
			if d == s.dims-1 {
				innerTile = eff
			}
		}
		ws := wsElems * s.wsBytesPerElem

		traffic := pointsPerNest * s.bytesPerPoint
		if screp {
			traffic *= 1 - 0.35*s.reuseFrac
		}
		// Stride efficiency: short innermost tiles waste cache lines and
		// prefetch streams.
		strideEff := innerTile / (innerTile + 24)
		memT := p.MemTime(traffic, ws, strideEff)

		// --- Compute: ILP from unroll-jam, register pressure from
		// register tiling (+ scalar replacement), SIMD gain when enabled.
		u := 1.0
		if s.nUnroll > 0 {
			u = k.space.ValueByName(c, fmt.Sprintf("U%d", g%s.nUnroll+1))
		}
		rt := 1.0
		if s.nReg > 0 {
			rt = k.space.ValueByName(c, fmt.Sprintf("RT%d", g%s.nReg+1))
		}
		live := s.baseLive + math.Sqrt(rt)
		if screp {
			live += 2
		}
		// Register tiling adds ILP like unrolling does.
		ilp := p.ILPEfficiency(u*math.Sqrt(rt), live)
		flops := pointsPerNest * s.flopsPerPoint
		compT := p.ComputeTime(flops, ilp)
		if vec {
			// Vector fill requires a long enough contiguous inner loop.
			gate := innerTile / (innerTile + 4*float64(p.VectorLanes))
			compT /= p.VectorSpeedup(s.vecFrac * gate)
		}

		// --- Loop overhead: per-iteration control flow amortized over
		// the innermost tile, inflated when unrolling is trivial.
		branch := 3.0 / p.FreqHz
		amort := innerTile * math.Min(u, 8)
		ovhT := pointsPerNest * branch / math.Max(1, amort/4)

		// Memory and compute overlap partially (hardware prefetch).
		nestT := math.Max(compT, memT) + 0.3*math.Min(compT, memT) + ovhT
		total += nestT
	}
	return total
}

// specs defines the 12 modeled kernels. Problem sizes follow SPAPT's
// defaults in spirit: each kernel's untransformed time lands in the
// sub-second range the paper reports (§III-B), with a mix of memory-bound
// (atax, mvt, gesummv, jacobi), compute-bound (mm, lu) and intermediate
// kernels, and parameter counts spanning 9–38.
var specs = []spec{
	{
		name: "adi", desc: "ADI stencil: alternating-direction implicit sweeps",
		n: 4000, points: 4000 * 4000 * 2, dims: 2,
		flopsPerPoint: 6, bytesPerPoint: 40, wsBytesPerElem: 24,
		reuseFrac: 0.5, vecFrac: 0.7, baseLive: 5,
		nTile: 8, nUnroll: 4, nReg: 4,
	},
	{
		name: "atax", desc: "matrix transpose & vector multiply: y = Aᵀ(Ax)",
		n: 6000, points: 6000 * 6000 * 2, dims: 2,
		flopsPerPoint: 2, bytesPerPoint: 16, wsBytesPerElem: 16,
		reuseFrac: 0.6, vecFrac: 0.9, baseLive: 3,
		nTile: 4, nUnroll: 3, nReg: 3,
	},
	{
		name: "bicgkernel", desc: "BiCG sub-kernel: q = Ap, s = Aᵀr",
		n: 6000, points: 6000 * 6000 * 2, dims: 2,
		flopsPerPoint: 4, bytesPerPoint: 24, wsBytesPerElem: 24,
		reuseFrac: 0.5, vecFrac: 0.85, baseLive: 4,
		nTile: 4, nUnroll: 4, nReg: 3,
	},
	{
		name: "correlation", desc: "correlation-matrix computation",
		n: 2000, points: 2000 * 2000 * 8, dims: 2,
		flopsPerPoint: 5, bytesPerPoint: 20, wsBytesPerElem: 24,
		reuseFrac: 0.7, vecFrac: 0.8, baseLive: 6,
		nTile: 16, nUnroll: 10, nReg: 10,
	},
	{
		name: "dgemv3", desc: "three chained dense matrix-vector products",
		n: 8000, points: 8000 * 8000 * 3, dims: 2,
		flopsPerPoint: 2, bytesPerPoint: 16, wsBytesPerElem: 16,
		reuseFrac: 0.55, vecFrac: 0.9, baseLive: 3,
		nTile: 12, nUnroll: 9, nReg: 7,
	},
	{
		name: "gemver", desc: "vector multiplication and matrix addition (BLAS gemver)",
		n: 8000, points: 8000 * 8000 * 2, dims: 2,
		flopsPerPoint: 4, bytesPerPoint: 24, wsBytesPerElem: 24,
		reuseFrac: 0.5, vecFrac: 0.85, baseLive: 5,
		nTile: 8, nUnroll: 8, nReg: 6,
	},
	{
		name: "gesummv", desc: "scalar, vector and matrix multiplication: y = αAx + βBx",
		n: 8000, points: 8000 * 8000 * 2, dims: 2,
		flopsPerPoint: 2, bytesPerPoint: 20, wsBytesPerElem: 24,
		reuseFrac: 0.4, vecFrac: 0.9, baseLive: 4,
		nTile: 3, nUnroll: 3, nReg: 3,
	},
	{
		name: "hessian", desc: "3×3 Hessian image filter",
		n: 2000, points: 2000 * 2000 * 9, dims: 2,
		flopsPerPoint: 4, bytesPerPoint: 12, wsBytesPerElem: 16,
		reuseFrac: 0.8, vecFrac: 0.75, baseLive: 7,
		nTile: 4, nUnroll: 3, nReg: 2,
	},
	{
		name: "jacobi", desc: "2-D Jacobi 5-point stencil sweep",
		n: 8000, points: 8000 * 8000, dims: 2,
		flopsPerPoint: 5, bytesPerPoint: 24, wsBytesPerElem: 16,
		reuseFrac: 0.75, vecFrac: 0.8, baseLive: 6,
		nTile: 4, nUnroll: 3, nReg: 2,
	},
	{
		name: "lu", desc: "LU decomposition without pivoting",
		n: 1200, points: 1200 * 1200 * 400, dims: 3,
		flopsPerPoint: 2, bytesPerPoint: 4, wsBytesPerElem: 16,
		reuseFrac: 0.65, vecFrac: 0.85, baseLive: 4,
		nTile: 6, nUnroll: 3, nReg: 3,
	},
	{
		name: "mm", desc: "dense matrix-matrix multiply C = AB",
		n: 1000, points: 1000 * 1000 * 1000, dims: 3,
		flopsPerPoint: 2, bytesPerPoint: 3, wsBytesPerElem: 24,
		reuseFrac: 0.7, vecFrac: 0.95, baseLive: 3,
		nTile: 6, nUnroll: 4, nReg: 4,
	},
	{
		name: "mvt", desc: "matrix-vector multiply with A and Aᵀ",
		n: 8000, points: 8000 * 8000 * 2, dims: 2,
		flopsPerPoint: 2, bytesPerPoint: 16, wsBytesPerElem: 16,
		reuseFrac: 0.5, vecFrac: 0.9, baseLive: 3,
		nTile: 4, nUnroll: 3, nReg: 3,
	},
}

// All returns the 12 modeled kernels, freshly constructed, in suite
// order.
func All() []*Kernel {
	out := make([]*Kernel, len(specs))
	for i, s := range specs {
		out[i] = build(s)
	}
	return out
}

// Names returns the kernel names in suite order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// ByName returns the named kernel.
func ByName(name string) (*Kernel, error) {
	for _, s := range specs {
		if s.name == name {
			return build(s), nil
		}
	}
	return nil, fmt.Errorf("spapt: unknown kernel %q (have %s)", name, strings.Join(Names(), ", "))
}

// ADI returns the ADI kernel, whose parameter space is the paper's
// Table I.
func ADI() *Kernel {
	k, err := ByName("adi")
	if err != nil {
		panic(err)
	}
	return k
}

// TableRow is one row of a Table I-style parameter summary.
type TableRow struct {
	Type   string
	Number int
	Values string
}

// Table summarises the kernel's parameter space grouped by parameter
// type, reproducing the layout of the paper's Table I.
func (k *Kernel) Table() []TableRow {
	groups := map[string][]space.Parameter{}
	for i := 0; i < k.space.NumParams(); i++ {
		p := k.space.Param(i)
		var g string
		switch {
		case strings.HasPrefix(p.Name, "RT"):
			g = "regtile"
		case strings.HasPrefix(p.Name, "T"):
			g = "tile"
		case strings.HasPrefix(p.Name, "U"):
			g = "unrolljam"
		case p.Name == "SCREP":
			g = "scalarreplace"
		case p.Name == "VEC":
			g = "vector"
		default:
			g = "other"
		}
		groups[g] = append(groups[g], p)
	}
	order := []string{"tile", "unrolljam", "regtile", "scalarreplace", "vector", "other"}
	var rows []TableRow
	for _, g := range order {
		ps, ok := groups[g]
		if !ok {
			continue
		}
		rows = append(rows, TableRow{Type: g, Number: len(ps), Values: levelSummary(ps[0])})
	}
	return rows
}

// levelSummary renders a parameter's levels compactly ("1, 2, 3, ..., 31"
// for long runs).
func levelSummary(p space.Parameter) string {
	n := p.NumLevels()
	var vals []string
	for i := 0; i < n; i++ {
		vals = append(vals, p.LevelString(i))
	}
	if n > 8 {
		return strings.Join(vals[:3], ", ") + ", ..., " + vals[n-1]
	}
	return strings.Join(vals, ", ")
}
