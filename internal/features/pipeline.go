package features

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// featMetrics holds the feature-layer instrument handles; the handles are
// nil (no-op) under a nil registry. The live set is swapped atomically by
// the OnDefault hook so obs.SetDefault can rebind mid-pipeline.
type featMetrics struct {
	cacheHits   *obs.Counter   // features.scalogram_cache.hits — pass-2 reuses
	cacheMisses *obs.Counter   // features.scalogram_cache.misses — pass-2 recomputes
	maskSkipped *obs.Counter   // features.mask.skipped — non-finite NVP points dropped
	pointsKept  *obs.Counter   // features.points.selected — unified DNVP sizes
	pairSeconds *obs.Histogram // features.select_pair.seconds — per-pair KL selection
	fitSeconds  *obs.Histogram // features.fit.seconds — whole FitPipelineCtx calls
}

var metPtr atomic.Pointer[featMetrics]

// met returns the current handle set; never nil.
func met() *featMetrics {
	if m := metPtr.Load(); m != nil {
		return m
	}
	return &featMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		metPtr.Store(&featMetrics{
			cacheHits:   r.Counter("features.scalogram_cache.hits"),
			cacheMisses: r.Counter("features.scalogram_cache.misses"),
			maskSkipped: r.Counter("features.mask.skipped"),
			pointsKept:  r.Counter("features.points.selected"),
			pairSeconds: r.Histogram("features.select_pair.seconds"),
			fitSeconds:  r.Histogram("features.fit.seconds"),
		})
	})
}

// NormMode is the persisted marker of how PerTraceNorm is applied. NormTrace
// is the only mode this build fits or decodes: the zero value is what
// templates fitted by older builds carry for the retired scalogram-plane
// normalization, whose moments span the whole Scales×TraceLen plane and so
// cannot be evaluated per cell. Such a configuration is refused (see
// PipelineConfig.CheckNorm) instead of decoding with the wrong
// normalization.
type NormMode int

// NormTrace standardizes the trace in the time domain *before* the CWT. The
// CWT is linear, so a per-trace gain/offset is cancelled exactly, and the
// normalization cost is O(TraceLen) and independent of the scalogram —
// which is what makes sparse per-cell inference possible.
const NormTrace NormMode = 1

// ErrNormMode is wrapped into the error for a per-trace-normalized
// configuration whose NormMode is not NormTrace.
var ErrNormMode = errors.New("features: per-trace normalization must be NormTrace (scalogram-plane templates from older builds are no longer supported; retrain)")

// PipelineConfig controls the end-to-end feature extraction of Fig. 1:
// CWT → KL selection → normalization → PCA.
type PipelineConfig struct {
	// UseMask enables the within-class not-varying filter of Def. 3.1. The
	// paper's initial regime effectively selects the highest between-class
	// KL peaks (Fig. 3's failing "3 highest peaks" choice) because too few
	// profiling programs make the not-varying estimate unreliable; covariate
	// shift adaptation turns the reliable version of the filter on.
	UseMask bool
	// KLth is the within-class not-varying threshold (0.005 default, 0.0005
	// under covariate shift adaptation). Only meaningful with UseMask.
	KLth float64
	// TopPerPair is the DNVP count per class pair (paper: 5).
	TopPerPair int
	// NumComponents is the PCA output dimensionality.
	NumComponents int
	// PerTraceNorm standardizes each trace by its own mean/std (NormTrace,
	// before the CWT) before any statistics, masks, or feature values are
	// taken from it — the covariate shift adaptation normalization. A
	// program- or device-level gain/offset moves every sample of a trace
	// together, so this normalization cancels it exactly; the not-varying
	// masks are then computed on shift-free data and keep the informative
	// points.
	PerTraceNorm bool
	// NormMode is the persisted marker of the PerTraceNorm mechanism.
	// FitPipelineCtx sets it to NormTrace when PerTraceNorm is on; callers
	// leave it zero.
	NormMode NormMode
	// Standardize applies a training-set z-score before PCA (Fig. 1's
	// normalization stage).
	Standardize bool
	// Bank names the mother-wavelet bank (scale count/range, Morlet center
	// frequency). The zero value is the paper's bank (dsp.DefaultBank), which
	// is also what configurations persisted before BankConfig existed decode
	// to. Persisted with the template so sparse kernels are provably rebuilt
	// from the bank the template was fit with.
	Bank dsp.BankConfig
}

// DefaultPipelineConfig mirrors the paper's base configuration.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		KLth:          0.005,
		TopPerPair:    5,
		NumComponents: 25,
		Standardize:   true,
	}
}

// CSAPipelineConfig returns the covariate-shift-adapted configuration of
// Section 5.5: tighter KLth and per-trace normalization in the time domain
// (NormTrace), which cancels a per-trace gain/offset exactly and keeps the
// fitted template eligible for sparse per-cell inference.
func CSAPipelineConfig() PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.UseMask = true
	cfg.KLth = 0.0005
	cfg.PerTraceNorm = true
	return cfg
}

// CheckNorm rejects a persisted configuration that asks for per-trace
// normalization by any mechanism other than NormTrace. PipelineFromState
// and the template-store header screen apply it, so a plane-normalized
// template fails closed at load.
func (c PipelineConfig) CheckNorm() error {
	if c.PerTraceNorm && c.NormMode != NormTrace {
		return fmt.Errorf("%w: NormMode %d", ErrNormMode, c.NormMode)
	}
	return nil
}

// MaxScalogramCacheBytes bounds the memory FitPipelineCtx may spend retaining
// per-trace scalograms between its statistics pass and its feature pass.
// Below the bound each training trace costs exactly one CWT; above it the
// feature pass recomputes scalograms (in parallel) instead of caching them.
// It is a variable so tests can force the recompute path.
var MaxScalogramCacheBytes = 512 << 20

// Pipeline converts raw traces into low-dimensional classifier inputs. It is
// fitted once on labeled training traces and then applied to any trace.
//
// Concurrency: a fitted Pipeline is immutable, so Extract, ExtractAllCtx,
// ExtractSparse, PairVectorFromScalogram and friends are safe for
// concurrent use.
// FitPipelineCtx itself parallelizes its CWT, pairwise-selection and feature
// passes over the parallel.Workers() pool; its result is identical (bitwise)
// to a single-worker run because every parallel loop writes index-owned
// slots and all reductions happen serially in index order.
type Pipeline struct {
	cfg      PipelineConfig
	sel      *Selector
	Points   []Point // unified DNVP
	Pairs    []PairFeatures
	pairIdx  [][]int // per pair: indices of its points within Points
	z        *stats.ZScoreNormalizer
	pca      *PCA
	baseline *FeatureBaseline
	nClasses int
	// sparse is the lazily built per-cell evaluator over Points (see
	// ExtractSparse); guarded by sparseOnce so the fitted pipeline stays
	// immutable-after-first-build and concurrency-safe.
	sparseOnce sync.Once
	sparse     *dsp.SparseCWT
	sparseErr  error
	// MaskSkipped counts time–frequency points dropped from the not-varying
	// masks because their within-class divergence was non-finite (see
	// Selector.NotVaryingMask). Zero on healthy data.
	MaskSkipped int
}

// FitPipelineCtx learns the full extraction chain from labeled traces and
// returns it with the classifier inputs of those same traces: X[i] is
// bitwise what ExtractAllCtx(ctx, traces)[i] computes, so a classifier
// trains on X without transforming its training set again. programs gives
// the program-file ID of each trace (used for the within-class not-varying
// masks); labels must be 0..nClasses-1.
//
// Each training trace is transformed exactly once: the scalogram feeds the
// statistics pass and is cached (bounded by MaxScalogramCacheBytes) for the
// feature pass. The CWT, the O(nClasses²) pairwise DNVP selection, the
// feature pass and the PCA products all run on the parallel.Workers() pool.
//
// Between every chunk of CWT work, every mask, every selection pair, every
// feature extraction and every PCA task, ctx is consulted and a cancelled
// context surfaces promptly as ctx.Err() (workers already running finish
// their current task first). The fitted result is unaffected by
// cancellation timing — a non-nil Pipeline is only returned when every
// stage completed.
func FitPipelineCtx(ctx context.Context, traces [][]float64, labels, programs []int, nClasses int, cfg PipelineConfig) (*Pipeline, [][]float64, error) {
	if len(traces) == 0 || len(traces) != len(labels) || len(traces) != len(programs) {
		return nil, nil, errors.New("features: FitPipelineCtx needs equal-length traces/labels/programs")
	}
	if nClasses < 2 {
		return nil, nil, fmt.Errorf("features: FitPipelineCtx needs >= 2 classes, got %d", nClasses)
	}
	if cfg.PerTraceNorm {
		cfg.NormMode = NormTrace // the one mechanism inference implements
	}
	sel, err := NewSelectorBank(len(traces[0]), cfg.Bank)
	if err != nil {
		return nil, nil, err
	}
	sel.KLth = cfg.KLth
	sel.TopPerPair = cfg.TopPerPair
	for _, l := range labels {
		if l < 0 || l >= nClasses {
			return nil, nil, fmt.Errorf("features: label %d out of range [0,%d)", l, nClasses)
		}
	}
	fitStart := time.Now()
	ctx, fitSpan := obs.Span(ctx, "features.fit")
	defer fitSpan.End()

	// Pass 1: accumulate per-class and per-(class, program) statistics.
	// Scalograms are computed in parallel (chunked to bound peak memory) and
	// accumulated serially in trace order, so the statistics are independent
	// of the worker count. When the whole set fits the cache budget, the
	// chunk is the full set and pass 2 reuses the scalograms — one CWT per
	// training trace total.
	classStats := make([]*PointStats, nClasses)
	perProgram := make([]map[int]*PointStats, nClasses)
	for c := range classStats {
		classStats[c] = NewPointStats(sel.numPoints())
		perProgram[c] = map[int]*PointStats{}
	}
	// Drift-baseline accumulator: per-trace time-domain mean/std, measured
	// before any normalization — it feeds the covariate-shift baseline
	// stored with the fitted pipeline.
	traceMoments := NewPointStats(len(driftFeatureNames))
	pl := &Pipeline{cfg: cfg, sel: sel, nClasses: nClasses}
	n := len(traces)
	// The covariate-shift normalization (NormTrace) happens in the time
	// domain, before any CWT: the statistics, masks and selection all see
	// scalograms of standardized traces. The caller's traces are never
	// mutated; the drift baseline below still reads the raw traces.
	input := traces
	if cfg.PerTraceNorm {
		input = make([][]float64, n)
		if err := parallel.ForCtx(ctx, n, func(k int) {
			input[k] = stats.NormalizeTrace(traces[k])
		}); err != nil {
			return nil, nil, err
		}
	}
	useCache := n*sel.numPoints()*8 <= MaxScalogramCacheBytes
	chunk := n
	if !useCache {
		if chunk = 8 * parallel.Workers(); chunk > n {
			chunk = n
		}
	}
	var flats [][]float64
	if useCache {
		flats = make([][]float64, n)
	}
	statsCtx, statsSpan := obs.Span(ctx, "features.cwt_stats")
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		sub, err := sel.CWT.TransformFlatBatchCtx(statsCtx, input[lo:hi])
		if err != nil {
			statsSpan.End()
			return nil, nil, err
		}
		// Accumulate the drift baseline from the un-normalized traces — the
		// monitor must see the moments CSA would cancel.
		for k := lo; k < hi; k++ {
			m, sd := stats.TraceNormParams(traces[k])
			if err := traceMoments.Add([]float64{m, sd}); err != nil {
				statsSpan.End()
				return nil, nil, err
			}
		}
		for i := lo; i < hi; i++ {
			flat := sub[i-lo]
			l := labels[i]
			if err := classStats[l].Add(flat); err != nil {
				return nil, nil, err
			}
			pp := perProgram[l][programs[i]]
			if pp == nil {
				pp = NewPointStats(sel.numPoints())
				perProgram[l][programs[i]] = pp
			}
			if err := pp.Add(flat); err != nil {
				return nil, nil, err
			}
			if useCache {
				flats[i] = flat
			}
		}
	}
	statsSpan.End()
	// Not-varying masks per class (nil masks disable the filter).
	masks := make([][]bool, nClasses)
	if cfg.UseMask {
		_, maskSpan := obs.Span(ctx, "features.masks")
		for c := 0; c < nClasses; c++ {
			if err := ctx.Err(); err != nil {
				maskSpan.End()
				return nil, nil, err
			}
			if len(perProgram[c]) >= 2 {
				m, skipped, err := sel.NotVaryingMask(perProgram[c])
				if err != nil {
					maskSpan.End()
					return nil, nil, fmt.Errorf("features: not-varying mask for class %d: %w", c, err)
				}
				pl.MaskSkipped += skipped
				masks[c] = m
			}
		}
		maskSpan.End()
		met().maskSkipped.Add(int64(pl.MaskSkipped))
	}
	// Pairwise DNVP selection, parallel over the O(nClasses²) class pairs.
	// Each pair writes its own slot; the union below walks the slots in the
	// serial (a, b) order, so the unified point set is order-independent.
	type pairJob struct{ a, b int }
	var jobs []pairJob
	for a := 0; a < nClasses; a++ {
		for b := a + 1; b < nClasses; b++ {
			if classStats[a].N < 2 || classStats[b].N < 2 {
				return nil, nil, fmt.Errorf("features: classes %d/%d lack traces", a, b)
			}
			jobs = append(jobs, pairJob{a, b})
		}
	}
	pairs := make([]PairFeatures, len(jobs))
	selCtx, selSpan := obs.Span(ctx, "features.select_pairs")
	if err := parallel.ForErrCtx(selCtx, len(jobs), func(i int) error {
		j := jobs[i]
		start := timeIfEnabled(met().pairSeconds)
		pf, err := sel.SelectPair(j.a, j.b, classStats[j.a], classStats[j.b], masks[j.a], masks[j.b])
		observeSince(met().pairSeconds, start)
		if err != nil {
			return err
		}
		pairs[i] = pf
		return nil
	}); err != nil {
		selSpan.End()
		return nil, nil, err
	}
	selSpan.End()
	points := UnionPoints(pairs)
	met().pointsKept.Add(int64(len(points)))
	pos := map[Point]int{}
	for i, p := range points {
		pos[p] = i
	}
	pairIdx := make([][]int, len(pairs))
	for i, pf := range pairs {
		idx := make([]int, len(pf.Points))
		for j, p := range pf.Points {
			idx[j] = pos[p]
		}
		pairIdx[i] = idx
	}
	pl.Points, pl.Pairs, pl.pairIdx = points, pairs, pairIdx
	pl.baseline = buildBaseline(traceMoments)

	// Pass 2: extract training features and fit normalizer + PCA. Cached
	// scalograms are already normalized, so this pass is pure indexing;
	// without the cache the scalograms are recomputed in parallel.
	feats := make([][]float64, n)
	extCtx, extSpan := obs.Span(ctx, "features.extract")
	if useCache {
		met().cacheHits.Add(int64(n))
		if err := parallel.ForCtx(extCtx, n, func(i int) {
			feats[i] = pl.pointsFromNormalized(flats[i])
		}); err != nil {
			extSpan.End()
			return nil, nil, err
		}
	} else {
		met().cacheMisses.Add(int64(n))
		if err := parallel.ForErrCtx(extCtx, n, func(i int) error {
			f, err := pl.rawFeatures(traces[i])
			if err != nil {
				return err
			}
			feats[i] = f
			return nil
		}); err != nil {
			extSpan.End()
			return nil, nil, err
		}
	}
	extSpan.End()
	pcaCtx, pcaSpan := obs.Span(ctx, "features.pca")
	if cfg.Standardize {
		z := &stats.ZScoreNormalizer{}
		if err := z.Fit(feats); err != nil {
			pcaSpan.End()
			return nil, nil, err
		}
		pl.z = z
		if feats, err = z.ApplyAll(feats); err != nil {
			pcaSpan.End()
			return nil, nil, err
		}
	}
	k := cfg.NumComponents
	if k < 1 {
		k = len(points)
	}
	pca, err := FitPCA(pcaCtx, feats, k)
	if err != nil {
		pcaSpan.End()
		return nil, nil, err
	}
	pl.pca = pca
	// The training traces' classifier inputs: their pass-2 values, already
	// standardized above, projected through the PCA just fitted — the steps
	// Extract runs after its CWT, in the same order, so X is bitwise what
	// ExtractAllCtx(ctx, traces) would recompute at one more CWT per trace.
	X := make([][]float64, n)
	if err := parallel.ForErrCtx(pcaCtx, n, func(i int) error {
		X[i] = make([]float64, pca.NumComponents())
		return pca.TransformInto(X[i], feats[i])
	}); err != nil {
		pcaSpan.End()
		return nil, nil, err
	}
	pcaSpan.End()
	observeSince(met().fitSeconds, fitStart)
	return pl, X, nil
}

// timeIfEnabled returns the current time when h is live, or the zero time
// when metrics are disabled — paired with observeSince so the disabled path
// skips the clock reads entirely.
func timeIfEnabled(h *obs.Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSince records the seconds elapsed since start into h; no-op when
// metrics are disabled or start is the zero time.
func observeSince(h *obs.Histogram, start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// RawScalogram computes the flattened CWT scalogram of a trace, standardized
// first when the pipeline uses NormTrace (the CWT magnitude is not linear in
// the trace's affine parameters, so the normalization cannot be deferred past
// the transform). It is the full-CWT representation training, the
// experiments and the sparse-path oracle read points from; pass it to
// PairVectorFromScalogram of any pipeline fitted for the same trace length,
// bank and normalization.
func (pl *Pipeline) RawScalogram(trace []float64) ([]float64, error) {
	if len(trace) != pl.sel.TraceLen {
		return nil, fmt.Errorf("features: trace length %d, want %d", len(trace), pl.sel.TraceLen)
	}
	if pl.cfg.PerTraceNorm {
		return pl.sel.CWT.TransformFlat(stats.NormalizeTrace(trace)), nil
	}
	return pl.sel.CWT.TransformFlat(trace), nil
}

// pointsFromNormalized reads the unified DNVP values out of a scalogram that
// already carries the pipeline's per-trace normalization (fit-time cache).
func (pl *Pipeline) pointsFromNormalized(flat []float64) []float64 {
	out := make([]float64, len(pl.Points))
	for i, p := range pl.Points {
		out[i] = flat[pl.sel.flatIndex(p)]
	}
	return out
}

// rawFeaturesFromScalogram reads the unified DNVP values out of a scalogram
// produced by RawScalogram (already normalized in the time domain).
func (pl *Pipeline) rawFeaturesFromScalogram(flat []float64) ([]float64, error) {
	if len(flat) != pl.sel.numPoints() {
		return nil, fmt.Errorf("features: scalogram length %d, want %d", len(flat), pl.sel.numPoints())
	}
	return pl.pointsFromNormalized(flat), nil
}

// rawFeatures extracts the unified DNVP values of one trace (one CWT).
func (pl *Pipeline) rawFeatures(trace []float64) ([]float64, error) {
	flat, err := pl.RawScalogram(trace)
	if err != nil {
		return nil, err
	}
	return pl.rawFeaturesFromScalogram(flat)
}

// finishInto applies the fitted z-score and PCA stages to the raw feature
// vector f: f is standardized and centred in place, and the classifier
// input lands in out (NumFeatures values).
func (pl *Pipeline) finishInto(out, f []float64) error {
	if pl.z != nil {
		if err := pl.z.ApplyInto(f, f); err != nil {
			return err
		}
	}
	return pl.pca.TransformInto(out, f)
}

// Extract maps one trace to its final classifier input.
func (pl *Pipeline) Extract(trace []float64) ([]float64, error) {
	f, err := pl.rawFeatures(trace)
	if err != nil {
		return nil, err
	}
	out := make([]float64, pl.NumFeatures())
	if err := pl.finishInto(out, f); err != nil {
		return nil, err
	}
	return out, nil
}

// ExtractAllCtx maps a batch of traces, parallelized over the
// parallel.Workers() pool. The result is index-aligned with traces and
// identical to serial per-trace Extract calls; a cancelled ctx stops it
// between traces with ctx.Err().
func (pl *Pipeline) ExtractAllCtx(ctx context.Context, traces [][]float64) ([][]float64, error) {
	out := make([][]float64, len(traces))
	if err := parallel.ForErrCtx(ctx, len(traces), func(i int) error {
		f, err := pl.Extract(traces[i])
		if err != nil {
			return err
		}
		out[i] = f
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// NumFeatures returns the dimensionality Extract produces.
func (pl *Pipeline) NumFeatures() int { return pl.pca.NumComponents() }

// NumPoints returns the size of the unified DNVP set (the paper reports 205
// for group 1: a 98.7 % reduction from 15 750).
func (pl *Pipeline) NumPoints() int { return len(pl.Points) }

// TraceLen returns the trace length the pipeline was fitted for.
func (pl *Pipeline) TraceLen() int { return pl.sel.TraceLen }

// PairCount returns the number of class pairs the fit selected features
// for — 0 on a pipeline restored from a PipelineState, which does not carry
// the per-pair tables.
func (pl *Pipeline) PairCount() int { return len(pl.Pairs) }

// PairVectorFromScalogram slices a pair-specific feature vector (the
// paper's x_{i,j} for majority voting) out of the unified raw feature vector
// of a trace, given its precomputed raw scalogram, so a trace voted on by
// many pair classifiers costs one CWT instead of one per pair. maxVars
// truncates to the strongest maxVars points (0 = all).
func (pl *Pipeline) PairVectorFromScalogram(pair int, flat []float64, maxVars int) ([]float64, error) {
	if pair < 0 || pair >= len(pl.Pairs) {
		return nil, fmt.Errorf("features: pair %d out of range", pair)
	}
	f, err := pl.rawFeaturesFromScalogram(flat)
	if err != nil {
		return nil, err
	}
	idx := pl.pairIdx[pair]
	if maxVars > 0 && maxVars < len(idx) {
		idx = idx[:maxVars]
	}
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = f[j]
	}
	return out, nil
}

// PairLabels returns the class labels of pair index i.
func (pl *Pipeline) PairLabels(pair int) (a, b int) {
	return pl.Pairs[pair].A, pl.Pairs[pair].B
}

// Config returns the pipeline's configuration.
func (pl *Pipeline) Config() PipelineConfig { return pl.cfg }
