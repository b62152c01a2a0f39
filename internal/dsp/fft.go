// Package dsp implements the signal-processing substrate of the
// disassembler: a radix-2 FFT (with Bluestein's algorithm for arbitrary
// lengths), linear convolution, and the continuous wavelet transform (CWT)
// that maps a 315-sample power trace into the 50×315 time–frequency plane
// the paper selects features from.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// FFT computes the discrete Fourier transform of x in place-compatible
// fashion (a new slice is returned; x is not modified). Any length is
// supported: powers of two use the iterative radix-2 algorithm, other
// lengths use Bluestein's chirp-z transform.
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

// fftPlan is the schedule of one power-of-two size: the bit-reversal
// swaps and every stage's twiddle factors in both directions. It is built
// once per size (planFFT) and only read afterwards, so radix2 re-derives no
// permutation and its butterflies carry no serial twiddle recurrence.
type fftPlan struct {
	swaps [][2]int // index pairs (i, j), i < j, the bit-reversal permutation exchanges
	// fwd and inv hold the twiddles of every stage back to back: the stage
	// that merges blocks of half h reads [h-1, 2h-1).
	fwd, inv []complex128
}

// fftPlans caches one plan per size, indexed by log2 of the size. A plan
// costs about twice its transform's own data and lives for the process.
var fftPlans [64]atomic.Pointer[fftPlan]

// planFFT returns the plan for power-of-two size n, building it on first
// use. Concurrent first uses may each build one; the first stored wins and
// every caller reads that one.
func planFFT(n int) *fftPlan {
	slot := &fftPlans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	p := &fftPlan{fwd: twiddles(n, -1), inv: twiddles(n, 1)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, [2]int{i, j})
		}
	}
	slot.CompareAndSwap(nil, p)
	return slot.Load()
}

// twiddles returns the twiddle factors of every radix-2 stage of size n in
// the direction of sign (-1 forward, +1 inverse). Each stage's factors come
// from the recurrence w *= wstep started at 1, so they are bitwise the
// values a butterfly loop carrying that recurrence would multiply by.
func twiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		wstep := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		w := complex(1, 0)
		for k := 0; k < size>>1; k++ {
			tw = append(tw, w)
			w *= wstep
		}
	}
	return tw
}

// radix2 performs an in-place iterative Cooley–Tukey FFT from the size's
// plan. len(y) must be a power of two.
func radix2(y []complex128, inverse bool) {
	n := len(y)
	if n == 1 {
		return
	}
	p := planFFT(n)
	for _, s := range p.swaps {
		y[s[0]], y[s[1]] = y[s[1]], y[s[0]]
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1:][:half]
		for start := 0; start < n; start += 2 * half {
			lo := y[start:][:half]
			hi := y[start+half:][:half]
			for k, wk := range w {
				a := lo[k]
				b := hi[k] * wk
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
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

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	m := 1
	for m < n {
		m <<= 1
	}
	return m
}
