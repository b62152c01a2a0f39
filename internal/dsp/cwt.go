package dsp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Morlet wavelet parameters. ω0 = 6 is the standard admissibility-respecting
// choice; the center frequency of scale s is ω0/(2πs) cycles per sample.
const (
	MorletOmega0 = 6.0
	// kernelHalfWidthSigmas controls truncation of the (infinite-support)
	// Morlet envelope; at 4σ the discarded tail is < 4e-4 of the peak.
	kernelHalfWidthSigmas = 4.0
)

// BankConfig names the mother-wavelet bank parameters that used to live as
// package-level constants: how many scales, over which range (in samples),
// and at which Morlet center frequency ω0. It is carried in
// features.PipelineConfig and persisted with every template, so sparse
// inference kernels are provably rebuilt from the same bank the template was
// fit with, and so the wavelet-ablation experiments can sweep banks without
// recompiling.
//
// The zero value means "the paper's bank" (see DefaultBank) — templates saved
// before BankConfig existed decode to the zero value and keep their exact
// behavior.
type BankConfig struct {
	// NumScales is the number of geometrically spaced scales (paper: 50).
	NumScales int
	// MinScale / MaxScale bound the scale range in samples (paper: 2..80).
	MinScale, MaxScale float64
	// Omega0 is the Morlet center frequency (paper: 6). Zero means
	// MorletOmega0.
	Omega0 float64
}

// DefaultBank is the paper's configuration: 50 scales from 2 to 80 samples
// at ω0 = 6 — center frequencies from ~0.48 down to ~0.012 cycles/sample,
// bracketing the clock harmonics of a 16 MHz target sampled at 2.5 GS/s.
func DefaultBank() BankConfig {
	return BankConfig{NumScales: 50, MinScale: 2, MaxScale: 80, Omega0: MorletOmega0}
}

// withDefaults resolves the zero value (and a zero Omega0) to the paper's
// bank so configs persisted by older builds keep their meaning.
func (b BankConfig) withDefaults() BankConfig {
	if b.NumScales == 0 && b.MinScale == 0 && b.MaxScale == 0 {
		b = DefaultBank()
	}
	if b.Omega0 == 0 {
		b.Omega0 = MorletOmega0
	}
	return b
}

// Validate reports whether the (default-resolved) bank is usable.
func (b BankConfig) Validate() error {
	b = b.withDefaults()
	if b.NumScales < 1 {
		return fmt.Errorf("dsp: bank needs at least 1 scale, got %d", b.NumScales)
	}
	if b.MinScale <= 0 || b.MaxScale < b.MinScale {
		return fmt.Errorf("dsp: invalid bank scale range [%g, %g]", b.MinScale, b.MaxScale)
	}
	if b.Omega0 <= 0 {
		return fmt.Errorf("dsp: bank ω0 must be positive, got %g", b.Omega0)
	}
	return nil
}

// transformCount counts completed scalogram computations process-wide, as an
// always-live registry counter (attached under "dsp.cwt.transforms" whenever
// a registry is installed). Inference never runs a full transform, so tests
// read its delta to pin that decodes stay on the sparse path.
var transformCount = obs.NewCounter()

// dspMetrics holds the dsp instrument handles; the handles are nil (no-op)
// under a nil registry. The live set is swapped atomically by the OnDefault
// hook so obs.SetDefault can rebind while transforms run.
type dspMetrics struct {
	planBuilds *obs.Counter // dsp.cwt.plan_cache.builds — FFT plans built
	planHits   *obs.Counter // dsp.cwt.plan_cache.hits — plans served from cache
	poolReuses *obs.Counter // dsp.cwt.pool.reuses — scratch buffers recycled
	poolAllocs *obs.Counter // dsp.cwt.pool.allocs — scratch buffers allocated
}

var metPtr atomic.Pointer[dspMetrics]

// met returns the current handle set; never nil.
func met() *dspMetrics {
	if m := metPtr.Load(); m != nil {
		return m
	}
	return &dspMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		r.Attach("dsp.cwt.transforms", transformCount)
		metPtr.Store(&dspMetrics{
			planBuilds: r.Counter("dsp.cwt.plan_cache.builds"),
			planHits:   r.Counter("dsp.cwt.plan_cache.hits"),
			poolReuses: r.Counter("dsp.cwt.pool.reuses"),
			poolAllocs: r.Counter("dsp.cwt.pool.allocs"),
		})
	})
}

// cwtPlan caches the kernel spectra at one padded FFT length, so every trace
// of the same length costs one forward FFT plus one inverse FFT per scale.
type cwtPlan struct {
	m          int // padded FFT length (power of two)
	kernelFFTs [][]complex128
}

// CWT computes a continuous wavelet transform of a real signal using the
// analytic Morlet wavelet over a fixed bank of scales. The result is the
// coefficient magnitude |W(j, k)| for scale index j and time index k — a
// Scales×len(x) matrix, matching the paper's 50×315 time–frequency plane.
// One transform is one forward FFT of the padded signal plus one inverse
// FFT per scale, each run from its size's radix-2 plan (bit-reversal swaps
// and stage twiddles built once per size).
//
// Concurrency: a CWT is safe for concurrent use by multiple goroutines. The
// scale bank and kernels are immutable after NewCWT; the per-length
// kernel-spectrum cache is guarded by an RWMutex (spectra are built once per
// distinct signal length and then only read). A transform leases its two
// complex work buffers from one package-level pool shared by every CWT and
// returns them before it returns, so a parked buffer keeps no CWT reachable.
// TransformFlatBatchCtx runs one task per trace on the package-wide
// parallel.Workers() pool.
type CWT struct {
	bank    BankConfig
	scales  []float64
	kernels [][]complex128 // time-reversed conjugate wavelet per scale

	maxKernelSz int

	planMu sync.RWMutex
	plans  map[int]*cwtPlan // keyed by padded length
}

// scratch pools the complex work buffers of every CWT (*[]complex128, any
// capacity). It is package-level so that a buffer parked in it, or in its
// victim cache across a GC, pins no CWT and no kernel-spectrum plan.
var scratch sync.Pool

// NewCWTBank builds a transform from a named bank configuration. The zero
// value (and a zero Omega0) resolves to DefaultBank, so configurations
// restored from templates predating BankConfig rebuild the paper's bank
// exactly.
func NewCWTBank(bank BankConfig) (*CWT, error) {
	bank = bank.withDefaults()
	if err := bank.Validate(); err != nil {
		return nil, err
	}
	nScales := bank.NumScales
	c := &CWT{
		bank:    bank,
		scales:  make([]float64, nScales),
		kernels: make([][]complex128, nScales),
		plans:   map[int]*cwtPlan{},
	}
	for j := 0; j < nScales; j++ {
		var s float64
		if nScales == 1 {
			s = bank.MinScale
		} else {
			// Geometric spacing: fine resolution at small scales.
			t := float64(j) / float64(nScales-1)
			s = bank.MinScale * math.Pow(bank.MaxScale/bank.MinScale, t)
		}
		c.scales[j] = s
		c.kernels[j] = morletKernel(s, bank.Omega0)
		if len(c.kernels[j]) > c.maxKernelSz {
			c.maxKernelSz = len(c.kernels[j])
		}
	}
	return c, nil
}

// Bank returns the (default-resolved) bank configuration this transform was
// built from.
func (c *CWT) Bank() BankConfig { return c.bank }

// planFor returns the kernel-spectrum plan for signals of length n, building
// and caching it on first use. Double-checked locking keeps the hot path a
// read lock; concurrent transforms of different lengths each get their own
// plan entry, so no caller ever observes a plan for the wrong length.
func (c *CWT) planFor(n int) *cwtPlan {
	m := NextPow2(n + c.maxKernelSz - 1)
	c.planMu.RLock()
	p := c.plans[m]
	c.planMu.RUnlock()
	if p != nil {
		met().planHits.Inc()
		return p
	}
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if p = c.plans[m]; p != nil {
		met().planHits.Inc()
		return p
	}
	met().planBuilds.Inc()
	p = &cwtPlan{m: m, kernelFFTs: make([][]complex128, len(c.kernels))}
	for j, kern := range c.kernels {
		fk := make([]complex128, m)
		copy(fk, kern)
		radix2(fk, false)
		p.kernelFFTs[j] = fk
	}
	c.plans[m] = p
	return p
}

// getBuf leases a zeroed m-element complex scratch buffer from the pool.
func getBuf(m int) []complex128 {
	if v := scratch.Get(); v != nil {
		b := *(v.(*[]complex128))
		if cap(b) >= m {
			met().poolReuses.Inc()
			b = b[:m]
			for i := range b {
				b[i] = 0
			}
			return b
		}
	}
	met().poolAllocs.Inc()
	return make([]complex128, m)
}

// putBuf returns a scratch buffer to the pool.
func putBuf(b []complex128) {
	scratch.Put(&b)
}

// NumScales returns the number of scales in the bank.
func (c *CWT) NumScales() int { return len(c.scales) }

// morletKernel returns the sampled, conjugated, time-reversed Morlet wavelet
// at scale s and center frequency omega0, normalized by 1/√s, ready for
// linear convolution.
func morletKernel(s, omega0 float64) []complex128 {
	half := int(math.Ceil(kernelHalfWidthSigmas * s))
	n := 2*half + 1
	k := make([]complex128, n)
	norm := math.Pow(math.Pi, -0.25) / math.Sqrt(s)
	for i := 0; i < n; i++ {
		t := float64(i-half) / s
		env := norm * math.Exp(-0.5*t*t)
		// Conjugate of exp(iω0 t) evaluated at reversed time equals
		// exp(iω0 t) at forward time; Morlet is symmetric in envelope.
		k[i] = complex(env*math.Cos(omega0*t), env*math.Sin(omega0*t))
	}
	return k
}

// forwardFFT returns the padded spectrum of x as a pooled buffer; the caller
// must release it with putBuf.
func forwardFFT(x []float64, p *cwtPlan) []complex128 {
	fx := getBuf(p.m)
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	radix2(fx, false)
	return fx
}

// row fills dst (length n) with the coefficient magnitudes of scale j, given
// the padded signal spectrum fx. prod is caller-provided scratch of length m.
func (c *CWT) row(fx []complex128, p *cwtPlan, j, n int, dst []float64, prod []complex128) {
	fk := p.kernelFFTs[j]
	for i := range prod {
		prod[i] = fx[i] * fk[i]
	}
	radix2(prod, true)
	invM := 1 / float64(p.m)
	off := (len(c.kernels[j]) - 1) / 2
	for i := 0; i < n; i++ {
		v := prod[i+off]
		dst[i] = invM * math.Hypot(real(v), imag(v))
	}
}

// Transform returns the 2-D magnitude scalogram of x: out[j][k] = |W(s_j, k)|.
// The output has len(c.scales) rows and len(x) columns, all rows sliced from
// one backing array.
//
// Transform is safe for concurrent use; see the CWT type documentation.
func (c *CWT) Transform(x []float64) [][]float64 {
	out := make([][]float64, len(c.scales))
	n := len(x)
	if n == 0 {
		return out
	}
	backing := make([]float64, len(c.scales)*n)
	for j := range out {
		out[j] = backing[j*n : (j+1)*n]
	}
	c.transformInto(x, backing)
	return out
}

// TransformFlat is Transform with the scalogram flattened row-major into a
// single vector of length NumScales()*len(x) — the layout the feature
// selector indexes with (scaleIndex, timeIndex). Like Transform it is safe
// for concurrent use.
func (c *CWT) TransformFlat(x []float64) []float64 {
	flat := make([]float64, len(c.scales)*len(x))
	if len(x) == 0 {
		return flat
	}
	c.transformInto(x, flat)
	return flat
}

// transformInto computes the row-major scalogram of x into flat
// (length NumScales()*len(x)) and bumps the transform counter.
func (c *CWT) transformInto(x []float64, flat []float64) {
	n := len(x)
	p := c.planFor(n)
	fx := forwardFFT(x, p)
	prod := getBuf(p.m)
	for j := range c.kernels {
		c.row(fx, p, j, n, flat[j*n:(j+1)*n], prod)
	}
	putBuf(prod)
	putBuf(fx)
	transformCount.Add(1)
}

// TransformFlatBatchCtx computes the flattened scalogram of every trace, one
// task per trace on the parallel.Workers() pool. The result is index-aligned
// with xs and identical to calling TransformFlat per trace. All traces must
// share one length. Once ctx is cancelled no new trace starts and the call
// returns ctx.Err().
// Cancellation latency is bounded by one trace's transform, not by the
// batch size. Each task leases and returns its own scratch, so the batch
// holds no buffer beyond the traces in flight.
func (c *CWT) TransformFlatBatchCtx(ctx context.Context, xs [][]float64) ([][]float64, error) {
	out := make([][]float64, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	ctx, sp := obs.Span(ctx, "dsp.cwt.batch")
	defer sp.End()
	n := len(xs[0])
	for i, x := range xs {
		if len(x) != n {
			return nil, fmt.Errorf("dsp: batch trace %d has length %d, want %d", i, len(x), n)
		}
	}
	if err := parallel.ForCtx(ctx, len(xs), func(i int) {
		out[i] = c.TransformFlat(xs[i])
	}); err != nil {
		return nil, err
	}
	return out, nil
}
