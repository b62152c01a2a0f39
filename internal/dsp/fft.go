// Package dsp implements the signal-processing substrate of the
// disassembler: a planned radix-2 FFT and the continuous wavelet transform
// (CWT) that maps a 315-sample power trace into the 50×315 time–frequency
// plane the paper selects features from, plus the sparse per-cell form of
// that transform inference runs.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

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
