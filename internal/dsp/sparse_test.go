package dsp

import (
	"fmt"
	"math"
	"testing"

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

// TestSparseBatchMatchesSerial asserts the two-trace pass is bitwise
// identical to two single-trace evaluations: for random banks, trace pairs
// and cell sets (always including the plane corners, where the kernel
// window clips against the trace edges), ValuesInto2 must write into each
// output exactly what ValuesInto writes for its trace.
func TestSparseBatchMatchesSerial(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 16}, func(g *testkit.G) error {
		n := g.IntBetween(16, 320)
		nScales := g.IntBetween(2, 50)
		c, err := NewCWT(nScales, 2, g.Float64(8, 80))
		if err != nil {
			return err
		}
		cells := randomCells(g, nScales, n, g.IntBetween(4, 300))
		s, err := c.Sparse(n, cells)
		if err != nil {
			return err
		}
		x0, x1 := g.Trace(n), g.Trace(n)
		want0, want1 := make([]float64, len(cells)), make([]float64, len(cells))
		if err := s.ValuesInto(want0, x0); err != nil {
			return err
		}
		if err := s.ValuesInto(want1, x1); err != nil {
			return err
		}
		got0, got1 := make([]float64, len(cells)), make([]float64, len(cells))
		if err := s.ValuesInto2(got0, got1, x0, x1); err != nil {
			return err
		}
		for i, cl := range cells {
			if math.Float64bits(got0[i]) != math.Float64bits(want0[i]) || math.Float64bits(got1[i]) != math.Float64bits(want1[i]) {
				return fmt.Errorf("cell %d (scale %d, time %d): pair (%v, %v), single (%v, %v)",
					i, cl.Scale, cl.Time, got0[i], got1[i], want0[i], want1[i])
			}
		}
		return nil
	})
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
	one, x := make([]float64, 1), make([]float64, 32)
	for _, bad := range []struct {
		name           string
		d0, d1, x0, x1 []float64
	}{
		{"first trace", one, one, make([]float64, 31), x},
		{"second trace", one, one, x, make([]float64, 33)},
		{"first output", make([]float64, 2), one, x, x},
		{"second output", one, nil, x, x},
	} {
		if err := s.ValuesInto2(bad.d0, bad.d1, bad.x0, bad.x1); err == nil {
			t.Fatalf("ValuesInto2 accepted a wrong-length %s", bad.name)
		}
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
	full0, sp0, cells0 := transformCount.Value(), uint64(sparseTransformCount.Value()), uint64(sparseCellCount.Value())
	if _, err := s.Values(x); err != nil {
		t.Fatal(err)
	}
	if got := transformCount.Value() - full0; got != 0 {
		t.Fatalf("sparse evaluation bumped the full-transform counter by %d", got)
	}
	if got := uint64(sparseTransformCount.Value()) - sp0; got != 1 {
		t.Fatalf("sparse transform counter delta = %d, want 1", got)
	}
	if got := uint64(sparseCellCount.Value()) - cells0; got != uint64(len(cells)) {
		t.Fatalf("sparse cell counter delta = %d, want %d", got, len(cells))
	}

	// A two-trace pass counts as two evaluations of every cell.
	full0, sp0, cells0 = transformCount.Value(), uint64(sparseTransformCount.Value()), uint64(sparseCellCount.Value())
	if err := s.ValuesInto2(make([]float64, len(cells)), make([]float64, len(cells)), x, g.Trace(64)); err != nil {
		t.Fatal(err)
	}
	if got := transformCount.Value() - full0; got != 0 {
		t.Fatalf("two-trace sparse evaluation bumped the full-transform counter by %d", got)
	}
	if got := uint64(sparseTransformCount.Value()) - sp0; got != 2 {
		t.Fatalf("two-trace sparse transform counter delta = %d, want 2", got)
	}
	if got := uint64(sparseCellCount.Value()) - cells0; got != 2*uint64(len(cells)) {
		t.Fatalf("two-trace sparse cell counter delta = %d, want %d", got, 2*len(cells))
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
