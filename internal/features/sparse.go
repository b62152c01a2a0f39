package features

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/stats"
)

// Sparse extraction: a fitted pipeline reads only len(Points) of the
// Scales×TraceLen scalogram cells, so inference can evaluate exactly those
// cells as direct dot products (dsp.SparseCWT) instead of running the full
// FFT transform. The evaluator is rebuilt deterministically from the
// persisted Points and bank configuration — the cell set IS the template's
// point set, nothing extra to serialize.

// sparseEval returns the pipeline's per-cell evaluator, building it on first
// use (thread-safe; the result is cached for the pipeline's lifetime).
func (pl *Pipeline) sparseEval() (*dsp.SparseCWT, error) {
	pl.sparseOnce.Do(func() {
		cells := make([]dsp.Cell, len(pl.Points))
		for i, p := range pl.Points {
			cells[i] = dsp.Cell{Scale: p.Scale, Time: p.Time}
		}
		pl.sparse, pl.sparseErr = pl.sel.CWT.Sparse(pl.sel.TraceLen, cells)
	})
	return pl.sparse, pl.sparseErr
}

// rawFeaturesSparse evaluates the unified DNVP values of one trace through
// the sparse path: NormTrace standardization (when configured) followed by
// one dsp.SparseCWT evaluation — len(Points) dot products instead of
// NumScales full FFT convolutions. Values agree with rawFeatures within
// testkit.CWTTol.
func (pl *Pipeline) rawFeaturesSparse(trace []float64) ([]float64, error) {
	sp, err := pl.sparseEval()
	if err != nil {
		return nil, err
	}
	if len(trace) != pl.sel.TraceLen {
		return nil, fmt.Errorf("features: trace length %d, want %d", len(trace), pl.sel.TraceLen)
	}
	if pl.cfg.PerTraceNorm {
		trace = stats.NormalizeTrace(trace)
	}
	return sp.Values(trace)
}

// ExtractSparse maps one trace to its final classifier input through the
// sparse per-cell path — the inference path of every hierarchy level. It is
// the fast twin of Extract: same z-score and PCA stages, point values within
// testkit.CWTTol of the full-FFT path.
func (pl *Pipeline) ExtractSparse(trace []float64) ([]float64, error) {
	f, err := pl.rawFeaturesSparse(trace)
	if err != nil {
		return nil, err
	}
	return pl.finishFeatures(f)
}

// SparseCells returns the number of time–frequency cells the sparse path
// evaluates per trace (the size of the unified DNVP set).
func (pl *Pipeline) SparseCells() (int, error) {
	sp, err := pl.sparseEval()
	if err != nil {
		return 0, err
	}
	return sp.NumCells(), nil
}
