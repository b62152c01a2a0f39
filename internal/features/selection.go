// Package features implements the paper's Section 3: feature selection in
// the time–frequency domain with Kullback–Leibler divergence (distinct and
// not-varying points, DNVP), normalization, and PCA dimensionality
// reduction, composed into a reusable extraction pipeline.
package features

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/stats"
)

// Point is a time–frequency index pair (j = scale index, k = time index).
type Point struct {
	Scale int
	Time  int
}

// PointStats accumulates per-point mean/variance over a population of
// scalograms without retaining them (Welford-free two-moment form; fine for
// the magnitudes involved).
type PointStats struct {
	N     int
	Sum   []float64
	SumSq []float64
}

// NewPointStats prepares an accumulator for flattened scalograms of length n.
func NewPointStats(n int) *PointStats {
	return &PointStats{Sum: make([]float64, n), SumSq: make([]float64, n)}
}

// Add accumulates one flattened scalogram.
func (s *PointStats) Add(flat []float64) error {
	if len(flat) != len(s.Sum) {
		return fmt.Errorf("features: PointStats.Add length %d, want %d", len(flat), len(s.Sum))
	}
	s.N++
	for i, v := range flat {
		s.Sum[i] += v
		s.SumSq[i] += v * v
	}
	return nil
}

// Gaussian returns the fitted Gaussian at flat index i.
func (s *PointStats) Gaussian(i int) stats.Gaussian {
	if s.N < 2 {
		return stats.Gaussian{}
	}
	n := float64(s.N)
	mean := s.Sum[i] / n
	v := (s.SumSq[i] - n*mean*mean) / (n - 1)
	if v < 0 {
		v = 0
	}
	return stats.Gaussian{Mean: mean, StdDev: math.Sqrt(v)}
}

// Selector performs the KL-divergence based feature selection over CWT
// scalograms.
type Selector struct {
	CWT      *dsp.CWT
	TraceLen int
	// KLth is the within-class (program-to-program) divergence threshold
	// below which a point counts as "not varying". The paper uses 0.005
	// initially and tightens it to 0.0005 for covariate shift adaptation.
	KLth float64
	// TopPerPair is how many distinct-and-not-varying points are kept per
	// class pair (the paper's DNVP⁽⁵⁾).
	TopPerPair int
}

// NewSelector builds a selector with the paper's defaults (50-scale CWT,
// KLth 0.005, top 5 per pair) for traces of length traceLen.
func NewSelector(traceLen int) (*Selector, error) {
	return NewSelectorBank(traceLen, dsp.BankConfig{})
}

// NewSelectorBank is NewSelector over a named wavelet bank; the zero-value
// bank resolves to the paper's (dsp.DefaultBank).
func NewSelectorBank(traceLen int, bank dsp.BankConfig) (*Selector, error) {
	c, err := dsp.NewCWTBank(bank)
	if err != nil {
		return nil, err
	}
	return &Selector{CWT: c, TraceLen: traceLen, KLth: 0.005, TopPerPair: 5}, nil
}

// numPoints is the flattened scalogram length.
func (s *Selector) numPoints() int { return s.CWT.NumScales() * s.TraceLen }

// flatIndex converts a point to its flat index.
func (s *Selector) flatIndex(p Point) int { return p.Scale*s.TraceLen + p.Time }

// BetweenClassKL returns the symmetric KL divergence map between two trace
// populations as a Scales×TraceLen matrix — the paper's D^B_KL.
func (s *Selector) BetweenClassKL(a, b *PointStats) ([][]float64, error) {
	if len(a.Sum) != s.numPoints() || len(b.Sum) != s.numPoints() {
		return nil, errors.New("features: stats dimensionality mismatch")
	}
	out := make([][]float64, s.CWT.NumScales())
	for j := range out {
		row := make([]float64, s.TraceLen)
		for k := range row {
			i := j*s.TraceLen + k
			row[k] = stats.SymmetricKLGaussian(a.Gaussian(i), b.Gaussian(i))
		}
		out[j] = row
	}
	return out, nil
}

// LocalMaxima2D returns the strict local maxima of a 2-D map using the
// 8-neighborhood, excluding the border. These are the paper's "peaks of the
// KL divergence" (∂²D/∂j∂k = 0 in their notation).
func LocalMaxima2D(m [][]float64) []Point {
	var out []Point
	for j := 1; j < len(m)-1; j++ {
		for k := 1; k < len(m[j])-1; k++ {
			v := m[j][k]
			if v <= 0 {
				continue
			}
			isMax := true
			for dj := -1; dj <= 1 && isMax; dj++ {
				for dk := -1; dk <= 1; dk++ {
					if dj == 0 && dk == 0 {
						continue
					}
					if m[j+dj][k+dk] >= v {
						isMax = false
						break
					}
				}
			}
			if isMax {
				out = append(out, Point{Scale: j, Time: k})
			}
		}
	}
	return out
}

// NotVaryingMask returns, for each flat point, whether the within-class KL
// divergence between every pair of program populations stays below KLth —
// the paper's NVP_c set. perProgram maps program ID → accumulated stats for
// that class's traces from that program.
//
// Two estimation-noise corrections make the paper's absolute thresholds
// (0.005 / 0.0005) usable at any acquisition scale. First, the empirical KL
// between two *identical* Gaussians estimated from n samples each does not
// vanish — its expectation is ≈ 1/n per side — so each pairwise divergence
// is debiased by (1/n_a + 1/n_b). Second, a single debiased estimate still
// fluctuates by roughly its bias, far above the tight threshold, so instead
// of requiring *every* program pair to pass (whose max-statistic is pure
// noise), the mask thresholds the *mean* debiased divergence across program
// pairs; averaging over pairs shrinks the noise while preserving the
// systematic program-to-program shift the mask is meant to detect.
//
// A point whose accumulated divergence is NaN or ±Inf (a NaN CWT coefficient
// that slipped past ingestion, an overflowed moment) cannot be certified as
// not-varying; it is conservatively masked out (false) and counted in
// skipped, so callers can report how many points were dropped. If every
// point is skipped the statistics are unusable and a stats.ErrDegenerate
// wrapped error is returned instead of an all-false mask.
func (s *Selector) NotVaryingMask(perProgram map[int]*PointStats) (mask []bool, skipped int, err error) {
	if len(perProgram) < 2 {
		return nil, 0, errors.New("features: not-varying mask needs >= 2 programs")
	}
	ids := make([]int, 0, len(perProgram))
	for id := range perProgram {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	n := s.numPoints()
	acc := make([]float64, n)
	pairs := 0
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			pa, pb := perProgram[ids[a]], perProgram[ids[b]]
			if len(pa.Sum) != n || len(pb.Sum) != n {
				return nil, 0, errors.New("features: per-program stats dimensionality mismatch")
			}
			if pa.N < 2 || pb.N < 2 {
				return nil, 0, errors.New("features: per-program stats need >= 2 traces")
			}
			bias := 1/float64(pa.N) + 1/float64(pb.N)
			for i := 0; i < n; i++ {
				acc[i] += stats.SymmetricKLGaussian(pa.Gaussian(i), pb.Gaussian(i)) - bias
			}
			pairs++
		}
	}
	mask = make([]bool, n)
	for i := range mask {
		m := acc[i] / float64(pairs)
		if math.IsNaN(m) || math.IsInf(m, 0) {
			skipped++ // non-finite divergence: cannot certify, leave false
			continue
		}
		mask[i] = m < s.KLth
	}
	if skipped == n {
		return nil, skipped, fmt.Errorf("%w: every within-class divergence is non-finite", stats.ErrDegenerate)
	}
	return mask, skipped, nil
}

// PairFeatures holds the selection result for one class pair.
type PairFeatures struct {
	A, B   int     // class labels
	Points []Point // DNVP, strongest first
	KL     []float64
}

// SelectPair computes the distinct-and-not-varying points between classes a
// and b: local maxima of the between-class KL map, filtered by both classes'
// not-varying masks, ranked by divergence, truncated to TopPerPair.
// If the not-varying constraint leaves fewer than TopPerPair points, the
// strongest peaks regardless of the mask fill the remainder (the paper's
// initial, loose-threshold regime effectively does the same).
func (s *Selector) SelectPair(a, b int, statsA, statsB *PointStats, maskA, maskB []bool) (PairFeatures, error) {
	klMap, err := s.BetweenClassKL(statsA, statsB)
	if err != nil {
		return PairFeatures{}, err
	}
	peaks := LocalMaxima2D(klMap)
	type scored struct {
		p  Point
		kl float64
		nv bool
	}
	all := make([]scored, 0, len(peaks))
	for _, p := range peaks {
		i := s.flatIndex(p)
		nv := true
		if maskA != nil && !maskA[i] {
			nv = false
		}
		if maskB != nil && !maskB[i] {
			nv = false
		}
		all = append(all, scored{p: p, kl: klMap[p.Scale][p.Time], nv: nv})
	}
	// Not-varying peaks first, then by KL strength.
	sort.Slice(all, func(i, j int) bool {
		if all[i].nv != all[j].nv {
			return all[i].nv
		}
		return all[i].kl > all[j].kl
	})
	pf := PairFeatures{A: a, B: b}
	for _, sc := range all {
		if len(pf.Points) >= s.TopPerPair {
			break
		}
		pf.Points = append(pf.Points, sc.p)
		pf.KL = append(pf.KL, sc.kl)
	}
	if len(pf.Points) == 0 {
		return pf, fmt.Errorf("features: no feature points found for pair (%d,%d)", a, b)
	}
	return pf, nil
}

// UnionPoints merges per-pair feature points into a deduplicated, stable
// ordering (the paper's ∪ DNVP⁽⁵⁾, 205 points for group 1).
func UnionPoints(pairs []PairFeatures) []Point {
	seen := map[Point]bool{}
	var out []Point
	for _, pf := range pairs {
		for _, p := range pf.Points {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scale != out[j].Scale {
			return out[i].Scale < out[j].Scale
		}
		return out[i].Time < out[j].Time
	})
	return out
}

// ExtractPoints reads the selected points out of one trace's scalogram.
func (s *Selector) ExtractPoints(trace []float64, points []Point) ([]float64, error) {
	if len(trace) != s.TraceLen {
		return nil, fmt.Errorf("features: trace length %d, want %d", len(trace), s.TraceLen)
	}
	sc := s.CWT.Transform(trace)
	out := make([]float64, len(points))
	for i, p := range points {
		if p.Scale < 0 || p.Scale >= len(sc) || p.Time < 0 || p.Time >= s.TraceLen {
			return nil, fmt.Errorf("features: point %+v out of range", p)
		}
		out[i] = sc[p.Scale][p.Time]
	}
	return out, nil
}
