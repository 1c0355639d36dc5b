package space

import "repro/internal/rng"

// SampleLHSColumns precomputes the per-parameter level columns that define
// a discrete Latin-hypercube draw of size n: column j holds, for each of
// the n samples, the level index of parameter j. Stratum i of n maps onto
// level floor(i*L/n) — levels are hit round-robin with remainders spread
// evenly — and the assignment order is then shuffled per parameter.
//
// The rng stream is consumed entirely here, in one fixed pass over the
// parameters, so reading the samples out of the columns in any order or
// chunking consumes exactly the same random draws as SampleLHS.
func (s *Space) SampleLHSColumns(r *rng.RNG, n int) [][]int {
	if n <= 0 {
		return nil
	}
	cols := make([][]int, len(s.params))
	for j, p := range s.params {
		L := p.NumLevels()
		col := make([]int, n)
		for i := 0; i < n; i++ {
			col[i] = i * L / n
		}
		r.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
		cols[j] = col
	}
	return cols
}

// SampleLHS draws n configurations by discrete Latin-hypercube sampling:
// for every parameter independently, the n draws are stratified so each
// level receives as equal a share of the samples as possible (with the
// assignment order shuffled per parameter). Compared with uniform
// sampling it guarantees marginal coverage of every level once
// n >= NumLevels, which matters for small pools — an alternative
// cold-start/pool design ablated in the benchmarks.
func (s *Space) SampleLHS(r *rng.RNG, n int) []Config {
	cols := s.SampleLHSColumns(r, n)
	if cols == nil {
		return nil
	}
	out := make([]Config, n)
	for i := 0; i < n; i++ {
		c := make(Config, len(s.params))
		for j := range s.params {
			c[j] = cols[j][i]
		}
		out[i] = c
	}
	return out
}
