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

// ExtractSparse maps one trace to its final classifier input through the
// sparse per-cell path. It is the fast twin of Extract: same z-score and
// PCA stages, point values within testkit.CWTTol of the full-FFT path. It
// allocates its buffers and the normalized trace; the decoder calls
// ExtractSparseInto. It stays only because scdisbench's replay calls it
// (ROADMAP item 1 retires it).
func (pl *Pipeline) ExtractSparse(trace []float64) ([]float64, error) {
	x := trace
	if pl.cfg.PerTraceNorm {
		x = stats.NormalizeTrace(trace)
	}
	out := make([]float64, pl.NumFeatures())
	if err := pl.ExtractSparseInto(out, make([]float64, len(pl.Points)), x); err != nil {
		return nil, err
	}
	return out, nil
}

// ExtractSparseInto is ExtractSparse into caller buffers, for a trace x that
// already carries the pipeline's per-trace normalization: the
// stats.NormalizeTrace output when Config().PerTraceNorm is set, the raw
// trace otherwise. A decoder that crosses several levels normalizes the
// trace once and hands it to each. The selected cells are evaluated into
// cells (NumPoints values), standardized and centred there in place, and
// the classifier input is written to out (NumFeatures values). Past the
// first call, which builds the kernel table, nothing is allocated.
func (pl *Pipeline) ExtractSparseInto(out, cells, x []float64) error {
	sp, err := pl.sparseEval()
	if err != nil {
		return err
	}
	if len(x) != pl.sel.TraceLen {
		return fmt.Errorf("features: trace length %d, want %d", len(x), pl.sel.TraceLen)
	}
	if err := sp.ValuesInto(cells, x); err != nil {
		return err
	}
	return pl.finishInto(out, cells)
}

// ExtractSparseInto2 is ExtractSparseInto for two traces at once: x0's
// classifier input lands in out0 through cells0, x1's in out1 through
// cells1. Both traces' cells are evaluated in one pass over the kernel
// windows (dsp.SparseCWT.ValuesInto2), and every output is bitwise equal to
// two ExtractSparseInto calls. Its errors depend only on buffer shapes, so
// they are the errors either single call would return.
func (pl *Pipeline) ExtractSparseInto2(out0, out1, cells0, cells1, x0, x1 []float64) error {
	sp, err := pl.sparseEval()
	if err != nil {
		return err
	}
	if len(x0) != pl.sel.TraceLen || len(x1) != pl.sel.TraceLen {
		return fmt.Errorf("features: trace lengths %d and %d, want %d", len(x0), len(x1), pl.sel.TraceLen)
	}
	if err := sp.ValuesInto2(cells0, cells1, x0, x1); err != nil {
		return err
	}
	if err := pl.finishInto(out0, cells0); err != nil {
		return err
	}
	return pl.finishInto(out1, cells1)
}

// SparseCells returns the number of time–frequency cells the sparse path
// evaluates per trace (the size of the unified DNVP set). It stays only
// because scdisbench's replay calls it (ROADMAP item 1 retires it).
func (pl *Pipeline) SparseCells() (int, error) {
	sp, err := pl.sparseEval()
	if err != nil {
		return 0, err
	}
	return sp.NumCells(), nil
}
