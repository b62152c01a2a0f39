// Package stats provides the univariate statistics the feature-selection
// stage is built on: Gaussian parameter estimation, the closed-form
// Kullback–Leibler divergence between Gaussians (the paper's Eq. 1 metric),
// and the normalizers used by covariate shift adaptation.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrTooFewSamples is returned by estimators that need at least 2 samples.
var ErrTooFewSamples = errors.New("stats: need at least 2 samples")

// ErrDegenerate is the typed sentinel for degenerate inputs: NaN/Inf samples
// or populations whose statistics cannot support the downstream pipeline
// (e.g. a constant feature). Callers unwrap it with errors.Is to reject a
// single trace or feature point without aborting a whole campaign.
var ErrDegenerate = errors.New("stats: degenerate input")

// MinSigma is the documented standard-deviation floor: every σ that enters a
// division or a logarithm (KL divergence, z-scores, per-trace normalization)
// is clamped to at least MinSigma, so a zero-variance population — a constant
// CWT coefficient, a flat trace — yields large-but-finite statistics instead
// of ±Inf or NaN.
const MinSigma = 1e-12

// AllFinite reports whether every value of xs is finite (no NaN, no ±Inf).
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Gaussian holds the parameters of a univariate normal distribution.
type Gaussian struct {
	Mean   float64
	StdDev float64
}

// EstimateGaussian fits a Gaussian to xs by sample mean and (n-1) standard
// deviation.
func EstimateGaussian(xs []float64) (Gaussian, error) {
	if len(xs) < 2 {
		return Gaussian{}, ErrTooFewSamples
	}
	if !AllFinite(xs) {
		return Gaussian{}, fmt.Errorf("%w: non-finite sample", ErrDegenerate)
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return Gaussian{Mean: m, StdDev: math.Sqrt(ss / float64(len(xs)-1))}, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// minSigma is the internal alias for the exported MinSigma floor.
const minSigma = MinSigma

// KLGaussian returns D_KL(P‖Q) for univariate Gaussians P and Q using the
// closed form
//
//	D = log(σq/σp) + (σp² + (μp-μq)²)/(2σq²) − 1/2.
//
// This is the divergence the paper computes between the per-class CWT
// coefficient populations at each time–frequency point.
//
// Both standard deviations are clamped to MinSigma, so a zero-σ side (a
// constant feature point) produces a large finite divergence rather than
// ±Inf; NaN can still propagate from NaN means, which the selection layer
// detects and reports (see features.Selector.NotVaryingMask).
func KLGaussian(p, q Gaussian) float64 {
	sp := math.Max(p.StdDev, minSigma)
	sq := math.Max(q.StdDev, minSigma)
	d := p.Mean - q.Mean
	return math.Log(sq/sp) + (sp*sp+d*d)/(2*sq*sq) - 0.5
}

// SymmetricKLGaussian returns the symmetrized divergence
// (D_KL(P‖Q)+D_KL(Q‖P))/2, which is what we use for peak picking so the
// feature map does not depend on class ordering.
func SymmetricKLGaussian(p, q Gaussian) float64 {
	return 0.5 * (KLGaussian(p, q) + KLGaussian(q, p))
}

// KLGaussianFromSamples estimates Gaussians from the two sample sets and
// returns their symmetric KL divergence.
func KLGaussianFromSamples(xs, ys []float64) (float64, error) {
	p, err := EstimateGaussian(xs)
	if err != nil {
		return 0, fmt.Errorf("stats: estimating P: %w", err)
	}
	q, err := EstimateGaussian(ys)
	if err != nil {
		return 0, fmt.Errorf("stats: estimating Q: %w", err)
	}
	return SymmetricKLGaussian(p, q), nil
}

// ZScoreNormalizer standardizes each feature dimension with statistics
// learned from training data: x'ⱼ = (xⱼ − μⱼ)/σⱼ.
type ZScoreNormalizer struct {
	Means []float64
	Stds  []float64
}

// Fit learns per-dimension means and standard deviations from X (rows are
// samples).
func (z *ZScoreNormalizer) Fit(X [][]float64) error {
	if len(X) < 2 {
		return ErrTooFewSamples
	}
	p := len(X[0])
	z.Means = make([]float64, p)
	z.Stds = make([]float64, p)
	col := make([]float64, len(X))
	for j := 0; j < p; j++ {
		for i, row := range X {
			if len(row) != p {
				return fmt.Errorf("stats: row %d has %d dims, want %d", i, len(row), p)
			}
			col[i] = row[j]
		}
		if !AllFinite(col) {
			return fmt.Errorf("%w: non-finite value in feature column %d", ErrDegenerate, j)
		}
		z.Means[j] = Mean(col)
		z.Stds[j] = math.Max(StdDev(col), minSigma)
	}
	return nil
}

// Apply returns the standardized copy of x.
func (z *ZScoreNormalizer) Apply(x []float64) ([]float64, error) {
	out := make([]float64, len(x))
	if err := z.ApplyInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto writes the standardized x into dst, which must have x's length;
// dst and x may be the same slice (in-place standardization).
func (z *ZScoreNormalizer) ApplyInto(dst, x []float64) error {
	if len(z.Means) == 0 {
		return errors.New("stats: ZScoreNormalizer used before Fit")
	}
	if len(x) != len(z.Means) || len(dst) != len(x) {
		return fmt.Errorf("stats: Apply dim %d into %d, fitted for %d", len(x), len(dst), len(z.Means))
	}
	for j := range x {
		dst[j] = (x[j] - z.Means[j]) / z.Stds[j]
	}
	return nil
}

// ApplyAll standardizes every row of X.
func (z *ZScoreNormalizer) ApplyAll(X [][]float64) ([][]float64, error) {
	out := make([][]float64, len(X))
	for i, row := range X {
		r, err := z.Apply(row)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// TraceNormParams returns the per-trace normalization parameters used by
// NormalizeTrace: the mean and the (population, minSigma-floored) standard
// deviation of x. Exposing them lets callers normalize a few selected points
// on the fly — (v − mean)/std, bit-identical to indexing the NormalizeTrace
// output — without materializing the full normalized vector.
func TraceNormParams(x []float64) (mean, std float64) {
	if len(x) == 0 {
		return 0, minSigma
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(x)))
	if sd < minSigma {
		sd = minSigma
	}
	return m, sd
}

// NormalizeTrace standardizes a single feature vector by its own mean and
// standard deviation. This is the covariate-shift-adaptation normalization:
// a per-trace DC offset or gain (program- or device-induced) cancels exactly,
// because it shifts/scales every selected feature point of that trace
// together.
func NormalizeTrace(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	m, sd := TraceNormParams(x)
	NormalizeTraceWith(out, x, m, sd)
	return out
}

// NormalizeTraceWith writes the NormalizeTrace result of x into dst, with
// the parameters already taken (TraceNormParams of x), so a caller that
// needs the moments for something else — the drift vector — reads the
// trace for them once. dst and x may be the same slice.
func NormalizeTraceWith(dst, x []float64, mean, std float64) {
	for i, v := range x {
		dst[i] = (v - mean) / std
	}
}
