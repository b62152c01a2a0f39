package features

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// PipelineState is the serializable form of a fitted Pipeline: everything
// inference needs to rebuild the extraction chain without retraining. The
// per-pair selection (Pipeline.Pairs) serves only majority voting on a
// freshly fitted pipeline and is not part of it, so a restored pipeline
// has PairCount() == 0.
type PipelineState struct {
	Cfg      PipelineConfig
	TraceLen int
	Points   []Point
	Z        *stats.ZScoreNormalizer // nil when standardization is off
	PCA      *PCA
	NClasses int
	// Baseline is the training-time drift reference; nil in states converted
	// from templates that predate drift support.
	Baseline *FeatureBaseline
}

// State snapshots a fitted pipeline.
func (pl *Pipeline) State() (*PipelineState, error) {
	if pl.pca == nil || pl.sel == nil {
		return nil, errors.New("features: pipeline not fitted")
	}
	return &PipelineState{
		Cfg:      pl.cfg,
		TraceLen: pl.sel.TraceLen,
		Points:   pl.Points,
		Z:        pl.z,
		PCA:      pl.pca,
		NClasses: pl.nClasses,
		Baseline: pl.baseline,
	}, nil
}

// PipelineFromState reconstructs a fitted pipeline. The CWT is rebuilt
// deterministically from the persisted bank configuration (the zero value
// resolves to the paper's bank), so sparse inference kernels are provably
// built from the bank the template was fit with. A per-trace-normalized
// state whose NormMode is not NormTrace is refused (see
// PipelineConfig.CheckNorm).
func PipelineFromState(st *PipelineState) (*Pipeline, error) {
	if st == nil || st.PCA == nil || len(st.Points) == 0 || st.TraceLen <= 0 {
		return nil, errors.New("features: invalid pipeline state")
	}
	// The projection applies Components·(x−Mean) without re-checking shapes,
	// so a state of uncontrolled origin (a corrupted file, a store header
	// whose sections never materialized) must be rejected here, not at
	// Extract.
	comp := st.PCA.Components
	if comp == nil || comp.Rows < 1 || comp.Cols < 1 || len(comp.Data) != comp.Rows*comp.Cols {
		return nil, errors.New("features: invalid pipeline state: PCA basis missing or misshapen")
	}
	if len(st.PCA.Mean) != comp.Cols {
		return nil, fmt.Errorf("features: invalid pipeline state: PCA mean has %d entries for %d input dims", len(st.PCA.Mean), comp.Cols)
	}
	if st.Z != nil && len(st.Z.Means) != len(st.Z.Stds) {
		return nil, errors.New("features: invalid pipeline state: z-score moments disagree")
	}
	if err := st.Cfg.CheckNorm(); err != nil {
		return nil, fmt.Errorf("features: invalid pipeline state: %w", err)
	}
	sel, err := NewSelectorBank(st.TraceLen, st.Cfg.Bank)
	if err != nil {
		return nil, err
	}
	sel.KLth = st.Cfg.KLth
	sel.TopPerPair = st.Cfg.TopPerPair
	return &Pipeline{
		cfg:      st.Cfg,
		sel:      sel,
		Points:   st.Points,
		z:        st.Z,
		pca:      st.PCA,
		baseline: st.Baseline,
		nClasses: st.NClasses,
	}, nil
}
