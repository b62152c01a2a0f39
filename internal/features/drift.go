package features

import (
	"fmt"

	"repro/internal/stats"
)

// FeatureBaseline is the training-time reference distribution for covariate
// shift monitoring: per-feature mean and standard deviation of the drift
// vector (see DriftVector) over the training traces, captured at fit time
// and persisted with the template.
//
// The drift vector holds *time-domain*, class-agnostic moments — the
// per-trace mean and standard deviation — and deliberately nothing from the
// scalogram. Two reasons. First, the Morlet wavelet is (near) zero-mean, so
// a pure DC offset — half of the paper's covariate-shift scenario — almost
// vanishes in the scalogram and would be invisible to a scalogram-based
// monitor. Second, the selected DNVP points are by construction the most
// class-discriminative coordinates, so their live marginal tracks the
// monitored program's instruction mix rather than acquisition conditions:
// any fixed program would permanently read as "drifted" against the
// all-class training marginal. The trace moments are exactly the statistics
// per-trace (CSA) normalization cancels, which is the point: when they move,
// the classifier is in the regime where accuracy collapses without CSA.
// Normalization is intentionally NOT applied before measuring them.
type FeatureBaseline struct {
	Names []string
	Mean  []float64
	Std   []float64
}

// NumDriftFeatures is the drift-vector dimensionality.
const NumDriftFeatures = 2

// driftFeatureNames labels the drift-vector coordinates, index-aligned with
// DriftVector's output.
var driftFeatureNames = []string{"trace.mean", "trace.std"}

// buildBaseline assembles the baseline from the per-trace time-domain
// moments accumulated in FitPipelineCtx's first pass.
func buildBaseline(traceMoments *PointStats) *FeatureBaseline {
	b := &FeatureBaseline{
		Names: driftFeatureNames,
		Mean:  make([]float64, len(driftFeatureNames)),
		Std:   make([]float64, len(driftFeatureNames)),
	}
	for i := range driftFeatureNames {
		g := traceMoments.Gaussian(i)
		b.Mean[i], b.Std[i] = g.Mean, g.StdDev
	}
	return b
}

// DriftBaseline returns the training-time drift reference, or nil when the
// pipeline was restored from a template predating drift support.
func (pl *Pipeline) DriftBaseline() *FeatureBaseline { return pl.baseline }

// DriftVector assembles the covariate-shift monitoring vector of one trace:
// [time-domain mean, time-domain std], index-aligned with DriftBaseline.
func (pl *Pipeline) DriftVector(trace []float64) ([]float64, error) {
	if len(trace) != pl.sel.TraceLen {
		return nil, fmt.Errorf("features: trace length %d, want %d", len(trace), pl.sel.TraceLen)
	}
	m, sd := stats.TraceNormParams(trace)
	return DriftVectorInto(make([]float64, NumDriftFeatures), m, sd), nil
}

// DriftVectorInto writes the drift vector of a trace whose time-domain
// moments are already known — stats.TraceNormParams, the parameters of its
// per-trace normalization — into dst (NumDriftFeatures values) and returns
// it, so a decode reads the trace once for both.
func DriftVectorInto(dst []float64, mean, std float64) []float64 {
	dst[0], dst[1] = mean, std
	return dst[:NumDriftFeatures]
}
