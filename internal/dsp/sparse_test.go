package dsp

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testkit"
)

// randomCells draws count cells uniformly over the scales×n plane, always
// including the four plane corners when it can — the corners are where kernel
// truncation clips hardest, so they must never be under-sampled by chance.
func randomCells(g *testkit.G, scales, n, count int) []Cell {
	cells := []Cell{
		{Scale: 0, Time: 0},
		{Scale: 0, Time: n - 1},
		{Scale: scales - 1, Time: 0},
		{Scale: scales - 1, Time: n - 1},
	}
	for len(cells) < count {
		cells = append(cells, Cell{Scale: g.Rng.Intn(scales), Time: g.Rng.Intn(n)})
	}
	return cells
}

// TestSparseMatchesTransform is the core agreement property: for random
// traces, banks, and cell sets (always including the plane corners, where the
// kernel window clips against the trace edges), the sparse dot-product path
// reproduces the full FFT scalogram within testkit.CWTTol.
func TestSparseMatchesTransform(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 8}, func(g *testkit.G) error {
		n := g.Size(16, 256)
		nScales := g.Size(2, 12)
		maxScale := g.Float64(8, 48)
		c, err := NewCWT(nScales, 2, maxScale)
		if err != nil {
			return err
		}
		x := g.Trace(n)
		cells := randomCells(g, nScales, n, g.Size(4, 40))
		s, err := c.Sparse(n, cells)
		if err != nil {
			return err
		}
		got, err := s.Values(x)
		if err != nil {
			return err
		}
		full := c.Transform(x)
		for i, cl := range cells {
			want := full[cl.Scale][cl.Time]
			if !testkit.Close(got[i], want, testkit.CWTTol, testkit.CWTTol) {
				return fmt.Errorf("cell %d (scale %d, time %d): sparse=%g fft=%g (diff %g, %d ulp)",
					i, cl.Scale, cl.Time, got[i], want, got[i]-want, testkit.ULPDiff(got[i], want))
			}
		}
		return nil
	})
}

// TestSparseProductionBankMatchesDirect pins the configuration that matters:
// the paper's 50×[2,80] bank over 315-sample traces, compared against the
// time-domain DirectCWT oracle (not the FFT path), at the plane corners plus
// a random spread.
func TestSparseProductionBankMatchesDirect(t *testing.T) {
	c, err := NewCWT(50, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	g := testkit.NewG(23)
	const n = 315
	x := g.Trace(n)
	cells := randomCells(g, 50, n, 64)
	s, err := c.Sparse(n, cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Values(x)
	if err != nil {
		t.Fatal(err)
	}
	want := testkit.DirectCWT(x, scalesOf(c), MorletOmega0, kernelHalfWidthSigmas)
	for i, cl := range cells {
		testkit.InDelta(t, got[i], want[cl.Scale][cl.Time], testkit.CWTTol,
			fmt.Sprintf("sparse cell (scale %d, time %d)", cl.Scale, cl.Time))
	}
}

// TestSparseBatchMatchesSerial asserts the batch path is bitwise identical to
// per-trace Values regardless of worker count.
func TestSparseBatchMatchesSerial(t *testing.T) {
	oldWorkers := parallel.Workers()
	defer parallel.SetWorkers(oldWorkers)

	c, err := NewCWT(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := testkit.NewG(29)
	xs := g.Traces(7, 96)
	cells := randomCells(g, 8, 96, 12)
	s, err := c.Sparse(96, cells)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([][]float64, len(xs))
	for i, x := range xs {
		if serial[i], err = s.Values(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		got, err := s.ValuesBatch(xs)
		if err != nil {
			t.Fatalf("ValuesBatch with %d workers: %v", workers, err)
		}
		testkit.ExactEqual2D(t, got, serial, fmt.Sprintf("sparse batch with %d workers vs serial", workers))
	}
}

// TestSparseValidation covers the constructor and evaluation error paths.
func TestSparseValidation(t *testing.T) {
	c, err := NewCWT(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sparse(0, nil); err == nil {
		t.Fatal("Sparse accepted a zero trace length")
	}
	if _, err := c.Sparse(32, []Cell{{Scale: 4, Time: 0}}); err == nil {
		t.Fatal("Sparse accepted an out-of-range scale")
	}
	if _, err := c.Sparse(32, []Cell{{Scale: 0, Time: 32}}); err == nil {
		t.Fatal("Sparse accepted an out-of-range time")
	}
	s, err := c.Sparse(32, []Cell{{Scale: 1, Time: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Values(make([]float64, 31)); err == nil {
		t.Fatal("Values accepted a wrong-length trace")
	}
	if err := s.ValuesInto(make([]float64, 2), make([]float64, 32)); err == nil {
		t.Fatal("ValuesInto accepted a wrong-length output")
	}
}

// TestSparseCountersNotFullCounter pins the satellite requirement: a sparse
// evaluation bumps the sparse transform/cell counters and leaves the
// full-transform counter untouched.
func TestSparseCountersNotFullCounter(t *testing.T) {
	c, err := NewCWT(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := testkit.NewG(31)
	x := g.Trace(64)
	cells := randomCells(g, 4, 64, 9)
	s, err := c.Sparse(64, cells)
	if err != nil {
		t.Fatal(err)
	}
	full0, sp0, cells0 := transformCount.Value(), SparseTransformCount(), SparseCellCount()
	if _, err := s.Values(x); err != nil {
		t.Fatal(err)
	}
	if got := transformCount.Value() - full0; got != 0 {
		t.Fatalf("sparse evaluation bumped the full-transform counter by %d", got)
	}
	if got := SparseTransformCount() - sp0; got != 1 {
		t.Fatalf("sparse transform counter delta = %d, want 1", got)
	}
	if got := SparseCellCount() - cells0; got != uint64(len(cells)) {
		t.Fatalf("sparse cell counter delta = %d, want %d", got, len(cells))
	}
}

// TestBankConfigDefaultsAndValidation covers the zero-value resolution that
// keeps pre-BankConfig templates meaningful, plus the rejection paths.
func TestBankConfigDefaultsAndValidation(t *testing.T) {
	c, err := NewCWTBank(BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultBank()
	if c.Bank() != want {
		t.Fatalf("zero-value bank resolved to %+v, want %+v", c.Bank(), want)
	}
	ref, err := NewCWT(50, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumScales() != ref.NumScales() {
		t.Fatalf("zero-value bank has %d scales, want %d", c.NumScales(), ref.NumScales())
	}
	for j := 0; j < c.NumScales(); j++ {
		if c.Scale(j) != ref.Scale(j) {
			t.Fatalf("scale %d: %g != %g", j, c.Scale(j), ref.Scale(j))
		}
	}
	for _, bad := range []BankConfig{
		{NumScales: -1, MinScale: 2, MaxScale: 8},
		{NumScales: 4, MinScale: 0, MaxScale: 8},
		{NumScales: 4, MinScale: 8, MaxScale: 2},
		{NumScales: 4, MinScale: 2, MaxScale: 8, Omega0: -1},
	} {
		if _, err := NewCWTBank(bad); err == nil {
			t.Fatalf("NewCWTBank accepted invalid bank %+v", bad)
		}
	}
}
