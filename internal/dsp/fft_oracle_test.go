package dsp

import (
	"math"
	"math/cmplx"
)

// The declarations below are the arbitrary-length FFT, convolution,
// alignment and scale accessors these tests check. No non-test code calls
// them: the CWT transforms through planned radix-2 FFTs of padded length.

// FFT computes the discrete Fourier transform of x in place-compatible
// fashion (a new slice is returned; x is not modified). Any length is
// supported: powers of two use the planned radix-2 transform the CWT runs,
// other lengths use Bluestein's chirp-z transform.
func FFT(x []complex128) []complex128 {
	return dft(x, false)
}

// IFFT computes the inverse DFT (with 1/N normalization).
func IFFT(x []complex128) []complex128 {
	y := dft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range y {
		y[i] /= n
	}
	return y
}

// Convolve computes the full linear convolution of a and b
// (length len(a)+len(b)-1) using the FFT.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	n := len(a) + len(b) - 1
	m := 1
	for m < n {
		m <<= 1
	}
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	for i, v := range a {
		fa[i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	radix2(fa, false)
	radix2(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	radix2(fa, true)
	out := make([]float64, n)
	invM := 1 / float64(m)
	for i := 0; i < n; i++ {
		out[i] = real(fa[i]) * invM
	}
	return out
}

func dft(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		y := make([]complex128, n)
		copy(y, x)
		radix2(y, inverse)
		return y
	}
	return bluestein(x, inverse)
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// expressed as a circular convolution of power-of-two length.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign·iπk²/n). k² mod 2n avoids precision loss for
	// large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		inv := cmplx.Conj(chirp[k])
		b[k] = inv
		if k > 0 {
			b[m-k] = inv
		}
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * chirp[k]
	}
	return out
}

// AlignByCrossCorrelation shifts trace so that its cross-correlation with
// ref is maximized within ±maxShift samples, returning the aligned copy and
// the shift that was applied. Out-of-range samples are filled with the edge
// value. The paper uses wavelet-domain alignment; integer-shift
// cross-correlation is the time-domain equivalent for synthetic traces.
func AlignByCrossCorrelation(ref, trace []float64, maxShift int) ([]float64, int) {
	if len(ref) != len(trace) || maxShift <= 0 {
		out := make([]float64, len(trace))
		copy(out, trace)
		return out, 0
	}
	best, bestShift := math.Inf(-1), 0
	for sh := -maxShift; sh <= maxShift; sh++ {
		var c float64
		for i := range ref {
			j := i + sh
			if j < 0 || j >= len(trace) {
				continue
			}
			c += ref[i] * trace[j]
		}
		if c > best {
			best, bestShift = c, sh
		}
	}
	out := make([]float64, len(trace))
	for i := range out {
		j := i + bestShift
		if j < 0 {
			j = 0
		}
		if j >= len(trace) {
			j = len(trace) - 1
		}
		out[i] = trace[j]
	}
	return out, bestShift
}

// Scale returns the scale (in samples) of scale index j.
func (c *CWT) Scale(j int) float64 { return c.scales[j] }

// CenterFrequency returns the center frequency (cycles/sample) of scale j.
func (c *CWT) CenterFrequency(j int) float64 {
	return c.bank.Omega0 / (2 * math.Pi * c.scales[j])
}

// NewCWT builds a transform with nScales scales geometrically spaced between
// minScale and maxScale (in samples) at the default ω0; see NewCWTBank for
// the named-configuration form. The paper's configuration is NewCWT(50, 2, 80).
func NewCWT(nScales int, minScale, maxScale float64) (*CWT, error) {
	return NewCWTBank(BankConfig{NumScales: nScales, MinScale: minScale, MaxScale: maxScale})
}
