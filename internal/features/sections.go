package features

import (
	"errors"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/linalg"
)

// Section codec for the flat template store (internal/store): the PCA
// projection basis is the pipeline's one big matrix section. The store
// moves the selected points, the z-score moments and the PCA mean and
// eigenvalues into its lazily loaded per-level aux section; the config,
// trace length and drift baseline stay in its eagerly decoded header.

// Sections enumerates the pipeline snapshot's matrix payloads. On a
// stripped snapshot the entry carries shape with nil Data.
func (st *PipelineState) Sections() []linalg.Section {
	if st == nil || st.PCA == nil || st.PCA.Components == nil {
		return nil
	}
	m := st.PCA.Components
	return []linalg.Section{{Name: "pca", Rows: m.Rows, Cols: m.Cols, Data: m.Data}}
}

// Strip returns a copy of the snapshot with the PCA basis payload removed
// but its shape retained. The receiver is never mutated: snapshots alias the
// live pipeline's state.
func (st *PipelineState) Strip() *PipelineState {
	if st == nil {
		return nil
	}
	out := *st
	if st.PCA != nil {
		p := *st.PCA
		if p.Components != nil {
			p.Components = &linalg.Matrix{Rows: p.Components.Rows, Cols: p.Components.Cols}
		}
		out.PCA = &p
	}
	return &out
}

// SetSection reattaches one lazily loaded payload to a stripped snapshot.
func (st *PipelineState) SetSection(name string, rows, cols int, data []float64) error {
	if st == nil {
		return fmt.Errorf("features: no pipeline state to attach section %q to", name)
	}
	if name != "pca" {
		return fmt.Errorf("features: unknown pipeline section %q", name)
	}
	if st.PCA == nil || st.PCA.Components == nil ||
		st.PCA.Components.Rows != rows || st.PCA.Components.Cols != cols {
		return fmt.Errorf("features: section %q shape %dx%d does not match the snapshot header", name, rows, cols)
	}
	if st.PCA.Components.Data != nil {
		return fmt.Errorf("features: duplicate section %q", name)
	}
	m, err := linalg.FromData(rows, cols, data)
	if err != nil {
		return fmt.Errorf("features: section %q: %w", name, err)
	}
	st.PCA.Components = m
	return nil
}

// CheckComplete reports whether every payload slot is populated, keeping a
// partially materialized snapshot from ever reaching PipelineFromState.
func (st *PipelineState) CheckComplete() error {
	if st == nil || st.PCA == nil {
		return errors.New("features: nil pipeline state")
	}
	if st.PCA.Components == nil || st.PCA.Components.Data == nil {
		return fmt.Errorf("features: section %q not materialized", "pca")
	}
	return nil
}

// SparseTable snapshots the pipeline's sparse per-cell kernel table for
// persistence, building the evaluator if it has not run yet.
func (pl *Pipeline) SparseTable() (*dsp.SparseTable, error) {
	sp, err := pl.sparseEval()
	if err != nil {
		return nil, err
	}
	return sp.Table(), nil
}

// InstallSparseTable pre-seeds the pipeline's sparse evaluator from a
// persisted kernel table, skipping the deterministic rebuild from Points.
// The table must agree with the fitted state it rides with — same bank,
// trace length, and cell set in Points order — so a template can never
// classify through kernels that belong to a different fit. Must be called
// before the first sparse extraction; a pipeline whose evaluator already
// ran keeps it (the build is deterministic, so the result is the same).
func (pl *Pipeline) InstallSparseTable(t *dsp.SparseTable) error {
	if t == nil {
		return nil
	}
	sp, err := dsp.SparseFromTable(t)
	if err != nil {
		return err
	}
	if sp.TraceLen() != pl.sel.TraceLen {
		return fmt.Errorf("features: sparse kernel table for trace length %d, pipeline expects %d", sp.TraceLen(), pl.sel.TraceLen)
	}
	if sp.Bank() != pl.sel.CWT.Bank() {
		return errors.New("features: sparse kernel table bank does not match the pipeline's wavelet bank")
	}
	cells := sp.Cells()
	if len(cells) != len(pl.Points) {
		return fmt.Errorf("features: sparse kernel table covers %d cells, pipeline selects %d points", len(cells), len(pl.Points))
	}
	for i, p := range pl.Points {
		if cells[i] != (dsp.Cell{Scale: p.Scale, Time: p.Time}) {
			return fmt.Errorf("features: sparse kernel table cell %d is (%d,%d), point is (%d,%d)",
				i, cells[i].Scale, cells[i].Time, p.Scale, p.Time)
		}
	}
	pl.sparseOnce.Do(func() { pl.sparse = sp })
	return nil
}
