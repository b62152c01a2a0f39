package dsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testkit"
)

// The FFT-based CWT is the hottest and most error-prone kernel in the
// pipeline, so it gets a differential oracle: testkit.DirectCWT evaluates the
// same truncated Morlet convolution by the O(n·k) time-domain definition and
// the two must agree to testkit.CWTTol (1e-9 relative+absolute — FFT roundoff
// at these lengths is ~1e-13, so any algorithmic drift fails loudly).

// radix2Recurrence is the unplanned radix-2 FFT radix2 replaced: it derives
// the bit-reversal permutation per call and carries each stage's twiddle as
// the running product w *= wstep. It is kept as radix2's bitwise oracle.
func radix2Recurrence(y []complex128, inverse bool) {
	n := len(y)
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			y[i], y[j] = y[j], y[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wstep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := y[start+k]
				b := y[start+k+half] * w
				y[start+k] = a + b
				y[start+k+half] = a - b
				w *= wstep
			}
		}
	}
}

// TestRadix2MatchesRecurrence pins the planned radix2 bitwise to the
// recurrence loop for every power of two up to 4096, forward and inverse,
// on a dense input and on a zero-padded one (the CWT's layout, where the
// sign of a zero product is exercised).
func TestRadix2MatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 4096; n <<= 1 {
		for _, fill := range []int{n, (n + 1) / 2} {
			x := make([]complex128, n)
			for i := 0; i < fill; i++ {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), x...)
				want := append([]complex128(nil), x...)
				radix2(got, inverse)
				radix2Recurrence(want, inverse)
				for i := range got {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("n=%d fill=%d inverse=%v: bin %d = %v, recurrence %v", n, fill, inverse, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// scalesOf snapshots the transform's scale bank so the oracle evaluates the
// identical scales.
func scalesOf(c *CWT) []float64 {
	s := make([]float64, c.NumScales())
	for j := range s {
		s[j] = c.Scale(j)
	}
	return s
}

func TestCWTMatchesDirectConvolution(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 6}, func(g *testkit.G) error {
		n := g.Size(32, 256)
		nScales := g.Size(3, 10)
		maxScale := g.Float64(8, 32)
		c, err := NewCWT(nScales, 2, maxScale)
		if err != nil {
			return err
		}
		x := g.Trace(n)
		got := c.Transform(x)
		want := testkit.DirectCWT(x, scalesOf(c), MorletOmega0, kernelHalfWidthSigmas)
		for j := range want {
			for k := range want[j] {
				if !testkit.Close(got[j][k], want[j][k], testkit.CWTTol, testkit.CWTTol) {
					return fmt.Errorf("scalogram[%d][%d] (scale %g): fft=%g direct=%g (diff %g, %d ulp)",
						j, k, c.Scale(j), got[j][k], want[j][k],
						got[j][k]-want[j][k], testkit.ULPDiff(got[j][k], want[j][k]))
				}
			}
		}
		return nil
	})
}

// TestCWTProductionBankMatchesDirect runs the oracle once at the exact scale
// bank and trace length the feature selector uses (50 scales over [2,80],
// 315-sample traces), so the configuration that matters is itself pinned.
func TestCWTProductionBankMatchesDirect(t *testing.T) {
	c, err := NewCWT(50, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	g := testkit.NewG(7)
	x := g.Trace(315)
	got := c.Transform(x)
	want := testkit.DirectCWT(x, scalesOf(c), MorletOmega0, kernelHalfWidthSigmas)
	testkit.AllClose2D(t, got, want, testkit.CWTTol, testkit.CWTTol, "production-bank scalogram")
}

// TestTransformFlatMatchesTransform pins that the flat and 2-D entry points
// run the identical computation: same backing fill, so bitwise equality.
func TestTransformFlatMatchesTransform(t *testing.T) {
	c, err := NewCWT(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := testkit.NewG(11)
	x := g.Trace(128)
	rows := c.Transform(x)
	flat := c.TransformFlat(x)
	for j, row := range rows {
		testkit.ExactEqual(t, flat[j*len(x):(j+1)*len(x)], row, fmt.Sprintf("flat row %d", j))
	}
}

// TestTransformBatchDeterministicAcrossWorkers asserts the documented
// contract that batch results are bitwise independent of the worker count:
// a 1-worker run, a many-worker run, and per-trace serial calls all agree
// exactly, on a small bank and on the paper's 50×315 production bank.
func TestTransformBatchDeterministicAcrossWorkers(t *testing.T) {
	oldWorkers := parallel.Workers()
	defer parallel.SetWorkers(oldWorkers)

	for _, tc := range []struct {
		bank          BankConfig
		traces, width int
	}{
		{BankConfig{NumScales: 8, MinScale: 2, MaxScale: 16}, 9, 96},
		{DefaultBank(), 6, 315},
	} {
		c, err := NewCWTBank(tc.bank)
		if err != nil {
			t.Fatal(err)
		}
		g := testkit.NewG(13)
		xs := g.Traces(tc.traces, tc.width)

		serial := make([][]float64, len(xs))
		for i, x := range xs {
			serial[i] = c.TransformFlat(x)
		}
		for _, workers := range []int{1, 4} {
			parallel.SetWorkers(workers)
			got, err := c.TransformFlatBatchCtx(context.Background(), xs)
			if err != nil {
				t.Fatalf("TransformFlatBatch with %d workers: %v", workers, err)
			}
			testkit.ExactEqual2D(t, got, serial, fmt.Sprintf("%d scales × %d: batch with %d workers vs serial", tc.bank.NumScales, tc.width, workers))
		}
	}
}

// TestTransformBatchCancelledThenRetried asserts that a cancelled batch
// reports the cancellation and that a retry on the same transform instance
// (with its now-warm plan cache and pools) reproduces the serial result
// bitwise — cancellation must not poison cached state.
func TestTransformBatchCancelledThenRetried(t *testing.T) {
	c, err := NewCWT(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := testkit.NewG(17)
	xs := g.Traces(6, 96)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TransformFlatBatchCtx(cancelled, xs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}

	want := make([][]float64, len(xs))
	for i, x := range xs {
		want[i] = c.TransformFlat(x)
	}
	got, err := c.TransformFlatBatchCtx(context.Background(), xs)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	testkit.ExactEqual2D(t, got, want, "retried batch vs serial")
}
