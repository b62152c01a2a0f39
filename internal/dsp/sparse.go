package dsp

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Sparse CWT inference: instead of 50 full FFT convolutions per trace, a
// SparseCWT evaluates only a fixed set of (scale, time) cells as direct dot
// products of the trace against precomputed, truncated Morlet kernels. The
// DNVP selection keeps ~205 of the 15 750 time–frequency cells, so the full
// scalogram computed at inference time is >98% waste; this type is the
// inverted pipeline that computes exactly what the templates read.
//
// Agreement with the FFT path: both paths sample the identical truncated
// kernel (morletKernel, ±4σ support), so the only divergence is accumulation
// order — the FFT's O(m log m) rounding versus the dot product's O(k). The
// property tests pin max-abs agreement within testkit.CWTTol (1e-9).

// Cell is one time–frequency coordinate: scale index j, time index k —
// dsp's view of a features.Point.
type Cell struct {
	Scale int
	Time  int
}

// sparseTransformCount / sparseCellCount mirror transformCount for the
// sparse path: always-live counters attached to the registry as
// "dsp.cwt.sparse.transforms" and "dsp.cwt.sparse_cells". The sparse path
// deliberately does NOT touch the full-transform counter, so the
// no-full-CWT-at-inference assertions and the DESIGN §8 metric catalogue
// stay truthful about which transform ran.
var (
	sparseTransformCount = obs.NewCounter()
	sparseCellCount      = obs.NewCounter()
)

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		r.Attach("dsp.cwt.sparse.transforms", sparseTransformCount)
		r.Attach("dsp.cwt.sparse_cells", sparseCellCount)
	})
}

// SparseCWT evaluates a fixed cell set of the magnitude scalogram for traces
// of one fixed length. Build one with CWT.Sparse and reuse it for every
// trace; construction precomputes the per-cell kernel windows.
//
// Concurrency: a SparseCWT is immutable after construction and safe for
// concurrent use — Values allocates only its output, ValuesInto writes only
// dst, and no scratch state is shared (the direct dot products need none, so
// unlike the FFT path there is no buffer pool to contend on).
type SparseCWT struct {
	bank  BankConfig
	n     int // trace length
	cells []Cell

	// Per-cell kernel windows, stored contiguously: cell i reads trace
	// samples [lo[i], lo[i]+length) against re/im[off[i] : off[i]+length),
	// where length = off[i+1]-off[i]. One flat backing array keeps the walk
	// cache-friendly regardless of how scattered the cells are.
	lo  []int
	off []int // len(cells)+1; off[i+1]-off[i] is cell i's support length
	re  []float64
	im  []float64
}

// Sparse builds a sparse evaluator for the given cell set over traces of
// length n, sharing this transform's scale bank and kernel truncation. Cells
// may be in any order and may repeat; Values returns magnitudes in the given
// cell order. Cells at the trace edges are handled exactly like the full
// path: the kernel window is clipped to the trace, never reflected or padded.
func (c *CWT) Sparse(n int, cells []Cell) (*SparseCWT, error) {
	if n < 1 {
		return nil, fmt.Errorf("dsp: Sparse needs a positive trace length, got %d", n)
	}
	total := 0
	for i, cl := range cells {
		if cl.Scale < 0 || cl.Scale >= len(c.scales) {
			return nil, fmt.Errorf("dsp: cell %d scale %d out of range [0,%d)", i, cl.Scale, len(c.scales))
		}
		if cl.Time < 0 || cl.Time >= n {
			return nil, fmt.Errorf("dsp: cell %d time %d out of range [0,%d)", i, cl.Time, n)
		}
		half := (len(c.kernels[cl.Scale]) - 1) / 2
		lo, hi := cl.Time-half, cl.Time+half
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		total += hi - lo + 1
	}
	s := &SparseCWT{
		bank:  c.bank,
		n:     n,
		cells: append([]Cell(nil), cells...),
		lo:    make([]int, len(cells)),
		off:   make([]int, len(cells)+1),
		re:    make([]float64, total),
		im:    make([]float64, total),
	}
	pos := 0
	for i, cl := range cells {
		kern := c.kernels[cl.Scale]
		half := (len(kern) - 1) / 2
		lo, hi := cl.Time-half, cl.Time+half
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		s.lo[i] = lo
		s.off[i] = pos
		// The linear-convolution identity the FFT path implements:
		// W(j,k) = Σ_i x[i]·kern[k+half−i], so trace sample lo+m pairs with
		// kernel sample kern[k+half−lo−m].
		base := cl.Time + half - lo
		for m := 0; m <= hi-lo; m++ {
			kv := kern[base-m]
			s.re[pos] = real(kv)
			s.im[pos] = imag(kv)
			pos++
		}
	}
	s.off[len(cells)] = pos
	return s, nil
}

// Bank returns the bank configuration the kernels were built from.
func (s *SparseCWT) Bank() BankConfig { return s.bank }

// NumCells returns the size of the cell set.
func (s *SparseCWT) NumCells() int { return len(s.cells) }

// TraceLen returns the trace length the evaluator was built for.
func (s *SparseCWT) TraceLen() int { return s.n }

// Cells returns the cell set in evaluation order. The slice is shared; do
// not mutate it.
func (s *SparseCWT) Cells() []Cell { return s.cells }

// ValuesInto evaluates every cell of x into dst (len(dst) must equal
// NumCells): dst[i] = |W(cells[i].Scale, cells[i].Time)|, identical within
// testkit.CWTTol to the corresponding entries of CWT.Transform(x).
func (s *SparseCWT) ValuesInto(dst, x []float64) error {
	if len(x) != s.n {
		return fmt.Errorf("dsp: sparse trace length %d, want %d", len(x), s.n)
	}
	if len(dst) != len(s.cells) {
		return fmt.Errorf("dsp: sparse output length %d, want %d", len(dst), len(s.cells))
	}
	for i := range s.cells {
		off, end := s.off[i], s.off[i+1]
		kr := s.re[off:end]
		ki := s.im[off:end][:len(kr)]
		xr := x[s.lo[i]:][:len(kr)]
		var re, im float64
		for m, v := range xr {
			re += v * kr[m]
			im += v * ki[m]
		}
		dst[i] = math.Hypot(re, im)
	}
	sparseTransformCount.Add(1)
	sparseCellCount.Add(int64(len(s.cells)))
	return nil
}

// ValuesInto2 is ValuesInto for two traces at once: d0 receives the cells
// of x0 and d1 those of x1. It makes one pass over each cell's kernel window
// and multiplies every kernel sample into both traces' sums, so each load of
// the kernel serves two dot products. Each trace keeps its re/im sums in
// exactly ValuesInto's order, so every value is bitwise equal to two
// ValuesInto calls; the counters advance by two evaluations as well.
func (s *SparseCWT) ValuesInto2(d0, d1, x0, x1 []float64) error {
	if len(x0) != s.n || len(x1) != s.n {
		return fmt.Errorf("dsp: sparse trace lengths %d and %d, want %d", len(x0), len(x1), s.n)
	}
	if len(d0) != len(s.cells) || len(d1) != len(s.cells) {
		return fmt.Errorf("dsp: sparse output lengths %d and %d, want %d", len(d0), len(d1), len(s.cells))
	}
	for i := range s.cells {
		off, end := s.off[i], s.off[i+1]
		lo := s.lo[i]
		kr := s.re[off:end]
		ki := s.im[off:end][:len(kr)]
		a := x0[lo:][:len(kr)]
		b := x1[lo:][:len(kr)]
		var re0, im0, re1, im1 float64
		for m, r := range kr {
			j := ki[m]
			u, v := a[m], b[m]
			re0 += u * r
			im0 += u * j
			re1 += v * r
			im1 += v * j
		}
		d0[i] = math.Hypot(re0, im0)
		d1[i] = math.Hypot(re1, im1)
	}
	sparseTransformCount.Add(2)
	sparseCellCount.Add(2 * int64(len(s.cells)))
	return nil
}

// Values is ValuesInto with a freshly allocated output. It stays only
// because scdisbench's replay calls it (ROADMAP item 1 retires it).
func (s *SparseCWT) Values(x []float64) ([]float64, error) {
	dst := make([]float64, len(s.cells))
	if err := s.ValuesInto(dst, x); err != nil {
		return nil, err
	}
	return dst, nil
}
