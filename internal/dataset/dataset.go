// Package dataset implements the paper's data protocol (§III-D): sample
// a large surrogate pool of configurations from the parameter space,
// split it into an unlabeled training pool and a pre-measured test set,
// and persist either as CSV.
//
// Paper defaults: 10 000 configurations sampled uniformly, split into a
// 7000-point pool (X_pool of Algorithm 1) and a 3000-point test set whose
// labels are measured in advance and reused at every evaluation
// checkpoint.
package dataset

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/rng"
	"repro/internal/space"
)

// Dataset is the pool/test split for one benchmark.
type Dataset struct {
	// Problem is the benchmark this data was drawn from.
	Problem bench.Problem

	// Pool is the unlabeled data pool handed to Algorithm 1.
	Pool []space.Config

	// Test are the held-out configurations, with TestY their labels
	// (measured in advance under the problem's noise protocol) and
	// TestTrue the noise-free ground truth for diagnostics.
	Test     []space.Config
	TestY    []float64
	TestTrue []float64
}

// Build samples poolSize + testSize configurations uniformly (with
// replacement, matching the paper's protocol on the small application
// spaces) and measures the test labels in advance. All randomness comes
// from r. Measuring the test set is the expensive part; ctx cancels it
// between measurements.
func Build(ctx context.Context, p bench.Problem, poolSize, testSize int, r *rng.RNG) (*Dataset, error) {
	sp := p.Space()
	all := sp.SampleConfigs(r, poolSize+testSize)
	ds := &Dataset{
		Problem: p,
		Pool:    all[:poolSize],
		Test:    all[poolSize:],
	}
	ev := bench.Evaluator(p, r.Split())
	ds.TestY = make([]float64, testSize)
	ds.TestTrue = make([]float64, testSize)
	for i, c := range ds.Test {
		y, err := ev.Evaluate(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("dataset: measuring test label %d/%d: %w", i+1, testSize, err)
		}
		ds.TestY[i] = y
		ds.TestTrue[i] = p.TrueTime(c)
	}
	return ds, nil
}

// WriteCSV writes the dataset as CSV: a header of parameter names plus
// "set" and "y" columns; pool rows have an empty y.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sp := d.Problem.Space()
	var header []string
	for i := 0; i < sp.NumParams(); i++ {
		header = append(header, sp.Param(i).Name)
	}
	header = append(header, "set", "y")
	if _, err := fmt.Fprintln(bw, strings.Join(header, ",")); err != nil {
		return err
	}
	// One reused row buffer; cells are appended directly so a paper-scale
	// dump (10 000 rows) allocates nothing per row.
	row := make([]byte, 0, 128)
	writeRow := func(c space.Config, set string, y float64, hasY bool) error {
		row = row[:0]
		for _, lvl := range c {
			row = strconv.AppendInt(row, int64(lvl), 10)
			row = append(row, ',')
		}
		row = append(row, set...)
		row = append(row, ',')
		if hasY {
			row = strconv.AppendFloat(row, y, 'g', -1, 64)
		}
		row = append(row, '\n')
		_, err := bw.Write(row)
		return err
	}
	for _, c := range d.Pool {
		if err := writeRow(c, "pool", 0, false); err != nil {
			return err
		}
	}
	for i, c := range d.Test {
		if err := writeRow(c, "test", d.TestY[i], true); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestX returns the encoded test design matrix.
func (d *Dataset) TestX() [][]float64 {
	return d.Problem.Space().EncodeAll(d.Test)
}
