package features

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/testkit"
)

// synthTrace builds a trace with a class-dependent tone plus noise; class 0
// uses 0.05 cycles/sample, class 1 uses 0.15, so their CWT scalograms differ
// at distinct scales.
func synthTrace(rng *rand.Rand, class int, offset float64) []float64 {
	n := 160
	freq := 0.05
	if class == 1 {
		freq = 0.15
	}
	tr := make([]float64, n)
	for t := range tr {
		tr[t] = math.Sin(2*math.Pi*freq*float64(t)) + offset + rng.NormFloat64()*0.05
	}
	return tr
}

func synthDataset(rng *rand.Rand, perClassPerProg, nProgs int, progOffset bool) (traces [][]float64, labels, programs []int) {
	for c := 0; c < 2; c++ {
		for p := 0; p < nProgs; p++ {
			off := 0.0
			if progOffset {
				off = 0.4 * float64(p)
			}
			for i := 0; i < perClassPerProg; i++ {
				traces = append(traces, synthTrace(rng, c, off))
				labels = append(labels, c)
				programs = append(programs, p)
			}
		}
	}
	return
}

func TestPointStats(t *testing.T) {
	ps := NewPointStats(2)
	if err := ps.Add([]float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Add([]float64{3, 10}); err != nil {
		t.Fatal(err)
	}
	g0 := ps.Gaussian(0)
	if g0.Mean != 2 {
		t.Fatalf("g0 = %+v", g0)
	}
	testkit.InDelta(t, g0.StdDev, math.Sqrt2, 1e-12, "point-stats stddev")
	g1 := ps.Gaussian(1)
	if g1.Mean != 10 || g1.StdDev != 0 {
		t.Fatalf("g1 = %+v", g1)
	}
	if err := ps.Add([]float64{1}); err == nil {
		t.Fatal("want length error")
	}
}

func TestLocalMaxima2D(t *testing.T) {
	m := [][]float64{
		{0, 0, 0, 0, 0},
		{0, 5, 0, 0, 0},
		{0, 0, 0, 7, 0},
		{0, 0, 0, 0, 0},
	}
	peaks := LocalMaxima2D(m)
	if len(peaks) != 2 {
		t.Fatalf("found %d peaks, want 2: %v", len(peaks), peaks)
	}
	want := map[Point]bool{{1, 1}: true, {2, 3}: true}
	for _, p := range peaks {
		if !want[p] {
			t.Fatalf("unexpected peak %+v", p)
		}
	}
	// A plateau is not a strict maximum.
	flat := [][]float64{
		{1, 1, 1},
		{1, 1, 1},
		{1, 1, 1},
	}
	if peaks := LocalMaxima2D(flat); len(peaks) != 0 {
		t.Fatalf("plateau produced peaks: %v", peaks)
	}
}

func TestBetweenClassKLFindsDiscriminativeScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sel, err := NewSelector(160)
	if err != nil {
		t.Fatal(err)
	}
	var a, b [][]float64
	for i := 0; i < 40; i++ {
		a = append(a, synthTrace(rng, 0, 0))
		b = append(b, synthTrace(rng, 1, 0))
	}
	sa, err := accumulateStats(sel, a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := accumulateStats(sel, b)
	if err != nil {
		t.Fatal(err)
	}
	klMap, err := sel.BetweenClassKL(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	// The divergence must be large at the scales matching the two tones and
	// small at a far-away scale. Find scale indices for each frequency.
	// The bank's scales are geometric from MinScale to MaxScale; scale s
	// has the Morlet center frequency ω0/(2πs) cycles/sample.
	bank := sel.CWT.Bank()
	centerFrequency := func(j int) float64 {
		s := bank.MinScale * math.Pow(bank.MaxScale/bank.MinScale, float64(j)/float64(bank.NumScales-1))
		return bank.Omega0 / (2 * math.Pi * s)
	}
	scaleFor := func(f float64) int {
		best, bd := 0, math.Inf(1)
		for j := 0; j < sel.CWT.NumScales(); j++ {
			if d := math.Abs(centerFrequency(j) - f); d < bd {
				best, bd = j, d
			}
		}
		return best
	}
	mid := 80
	j0, j1 := scaleFor(0.05), scaleFor(0.15)
	jFar := scaleFor(0.45)
	if klMap[j0][mid] < 10*klMap[jFar][mid] && klMap[j1][mid] < 10*klMap[jFar][mid] {
		t.Fatalf("KL map not discriminative: tone scales %g/%g vs far %g",
			klMap[j0][mid], klMap[j1][mid], klMap[jFar][mid])
	}
}

func TestNotVaryingMaskFlagsOffsetSensitivePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sel, err := NewSelector(160)
	if err != nil {
		t.Fatal(err)
	}
	sel.KLth = 0.05
	// Two programs of the same class with very different DC offsets.
	perProg := map[int]*PointStats{}
	for p := 0; p < 2; p++ {
		var trs [][]float64
		for i := 0; i < 30; i++ {
			trs = append(trs, synthTrace(rng, 0, 3*float64(p)))
		}
		ps, err := accumulateStats(sel, trs)
		if err != nil {
			t.Fatal(err)
		}
		perProg[p] = ps
	}
	mask, skipped, err := sel.NotVaryingMask(perProg)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("healthy data skipped %d points", skipped)
	}
	varying := 0
	for _, ok := range mask {
		if !ok {
			varying++
		}
	}
	if varying == 0 {
		t.Fatal("a 3.0 DC offset between programs should mark some points varying")
	}
	if varying == len(mask) {
		t.Fatal("not every point should be varying")
	}
	if _, _, err := sel.NotVaryingMask(map[int]*PointStats{0: NewPointStats(sel.numPoints())}); err == nil {
		t.Fatal("want error for single program")
	}
}

func TestSelectPairAndUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sel, err := NewSelector(160)
	if err != nil {
		t.Fatal(err)
	}
	var a, b [][]float64
	for i := 0; i < 40; i++ {
		a = append(a, synthTrace(rng, 0, 0))
		b = append(b, synthTrace(rng, 1, 0))
	}
	sa, _ := accumulateStats(sel, a)
	sb, _ := accumulateStats(sel, b)
	pf, err := sel.SelectPair(0, 1, sa, sb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Points) == 0 || len(pf.Points) > sel.TopPerPair {
		t.Fatalf("selected %d points, want 1..%d", len(pf.Points), sel.TopPerPair)
	}
	for i := 1; i < len(pf.KL); i++ {
		if pf.KL[i] > pf.KL[0] && i > 0 {
			// ordering is by (not-varying, KL); with nil masks it is pure KL
			t.Fatalf("points not ranked by KL: %v", pf.KL)
		}
	}
	u := UnionPoints([]PairFeatures{pf, pf})
	if len(u) != len(dedup(pf.Points)) {
		t.Fatalf("union of identical pairs should deduplicate: %d vs %d", len(u), len(dedup(pf.Points)))
	}
}

func dedup(ps []Point) []Point {
	seen := map[Point]bool{}
	var out []Point
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func TestExtractPointsValidation(t *testing.T) {
	sel, err := NewSelector(100)
	if err != nil {
		t.Fatal(err)
	}
	tr := make([]float64, 100)
	if _, err := sel.ExtractPoints(tr[:50], []Point{{0, 0}}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := sel.ExtractPoints(tr, []Point{{99, 0}}); err == nil {
		t.Fatal("want out-of-range error")
	}
	got, err := sel.ExtractPoints(tr, []Point{{0, 0}, {10, 50}})
	if err != nil || len(got) != 2 {
		t.Fatalf("extract: %v %v", got, err)
	}
}

func TestFitPCAAndTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Data living mostly along direction (1, 1, 0).
	var X [][]float64
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64() * 3
		X = append(X, []float64{v + rng.NormFloat64()*0.1, v + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1})
	}
	pca, err := FitPCA(context.Background(), X, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pca.NumComponents() != 3 || pca.InputDim() != 3 {
		t.Fatalf("dims %d/%d", pca.NumComponents(), pca.InputDim())
	}
	if ev := pca.ExplainedVariance(1); ev < 0.95 {
		t.Fatalf("first PC should capture >95%% variance, got %g", ev)
	}
	y, err := pca.Transform(X[0])
	if err != nil || len(y) != 3 {
		t.Fatalf("transform: %v %v", y, err)
	}
	// First component direction ≈ (1,1,0)/√2.
	c0 := []float64{pca.Components.At(0, 0), pca.Components.At(0, 1), pca.Components.At(0, 2)}
	if !testkit.Close(math.Abs(c0[0]), 1/math.Sqrt2, 0, 0.05) || math.Abs(c0[2]) > 0.1 {
		t.Fatalf("first PC direction %v", c0)
	}
	if _, err := pca.Transform([]float64{1}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := FitPCA(context.Background(), X, 0); err == nil {
		t.Fatal("want k>=1 error")
	}
	if _, err := FitPCA(context.Background(), X[:1], 1); err == nil {
		t.Fatal("want sample-count error")
	}
	// k > p clamps.
	pca2, err := FitPCA(context.Background(), X, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pca2.NumComponents() != 3 {
		t.Fatalf("k should clamp to 3, got %d", pca2.NumComponents())
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traces, labels, programs := synthDataset(rng, 20, 3, false)
	cfg := DefaultPipelineConfig()
	cfg.NumComponents = 3
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumFeatures() > 3 || pl.NumFeatures() < 1 {
		t.Fatalf("NumFeatures = %d", pl.NumFeatures())
	}
	if pl.NumPoints() == 0 || pl.NumPoints() > 5 {
		t.Fatalf("NumPoints = %d, want 1..5 for a single pair", pl.NumPoints())
	}
	if pl.PairCount() != 1 || pl.nClasses != 2 {
		t.Fatalf("pairs=%d classes=%d", pl.PairCount(), pl.nClasses)
	}
	// Features must separate the two classes linearly: check the projected
	// class means are further apart than the average within-class spread.
	f0, err := pl.Extract(synthTrace(rng, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 []float64
	n0, n1 := 0, 0
	for i := 0; i < 30; i++ {
		a, _ := pl.Extract(synthTrace(rng, 0, 0))
		b, _ := pl.Extract(synthTrace(rng, 1, 0))
		if m0 == nil {
			m0 = make([]float64, len(a))
			m1 = make([]float64, len(b))
		}
		for j := range a {
			m0[j] += a[j]
			m1[j] += b[j]
		}
		n0++
		n1++
	}
	var sep float64
	for j := range m0 {
		d := m0[j]/float64(n0) - m1[j]/float64(n1)
		sep += d * d
	}
	if math.Sqrt(sep) < 0.5 {
		t.Fatalf("projected class means too close: %g", math.Sqrt(sep))
	}
	_ = f0

	// Pair vector access.
	pv, err := pl.PairVector(0, traces[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pv) > 3 {
		t.Fatalf("PairVector returned %d values, want <=3", len(pv))
	}
	a, b := pl.PairLabels(0)
	if a != 0 || b != 1 {
		t.Fatalf("pair labels %d,%d", a, b)
	}
	if _, err := pl.PairVector(9, traces[0], 0); err == nil {
		t.Fatal("want pair range error")
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := DefaultPipelineConfig()
	if _, _, err := FitPipelineCtx(context.Background(), nil, nil, nil, 2, cfg); err == nil {
		t.Fatal("want error for empty input")
	}
	tr := [][]float64{make([]float64, 50), make([]float64, 50)}
	if _, _, err := FitPipelineCtx(context.Background(), tr, []int{0, 1}, []int{0}, 2, cfg); err == nil {
		t.Fatal("want error for length mismatch")
	}
	if _, _, err := FitPipelineCtx(context.Background(), tr, []int{0, 5}, []int{0, 0}, 2, cfg); err == nil {
		t.Fatal("want error for out-of-range label")
	}
	if _, _, err := FitPipelineCtx(context.Background(), tr, []int{0, 0}, []int{0, 0}, 1, cfg); err == nil {
		t.Fatal("want error for single class")
	}
}

func TestCSAPipelineCancelsOffsetShift(t *testing.T) {
	// Fit on programs with varying offsets using CSA; a test trace with an
	// unseen offset must land near its class's training features.
	rng := rand.New(rand.NewSource(6))
	traces, labels, programs := synthDataset(rng, 20, 4, true)
	cfg := CSAPipelineConfig()
	cfg.NumComponents = 2
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unseen, much larger offset.
	shifted, _ := pl.Extract(synthTrace(rng, 0, 5.0))
	clean, _ := pl.Extract(synthTrace(rng, 0, 0))
	other, _ := pl.Extract(synthTrace(rng, 1, 0))
	d := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(s)
	}
	if d(shifted, clean) > d(shifted, other) {
		t.Fatalf("CSA failed: shifted class-0 trace closer to class 1 (%g vs %g)",
			d(shifted, clean), d(shifted, other))
	}
}

func TestNormalizeTraceIdempotentOnFeatures(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	once := stats.NormalizeTrace(x)
	twice := stats.NormalizeTrace(once)
	testkit.AllClose(t, twice, once, 0, 1e-9, "double-normalized trace")
}

// Satellite regression: a NaN-contaminated program population must not
// silently flip mask points to "varying" — the points are counted as skipped
// and reported, and fully-degenerate statistics are a typed error.
func TestNotVaryingMaskReportsNaNPoints(t *testing.T) {
	sel, err := NewSelector(4)
	if err != nil {
		t.Fatal(err)
	}
	sel.TraceLen = 4
	n := sel.numPoints()
	mk := func() *PointStats {
		ps := NewPointStats(n)
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = float64(i % 7)
		}
		for k := 0; k < 3; k++ {
			for i := range flat {
				flat[i] += 0.001 * float64(k)
			}
			if err := ps.Add(flat); err != nil {
				t.Fatal(err)
			}
		}
		return ps
	}
	a, b := mk(), mk()
	// Poison two points of one program's statistics.
	a.Sum[0] = math.NaN()
	a.Sum[5] = math.Inf(1)
	mask, skipped, err := sel.NotVaryingMask(map[int]*PointStats{0: a, 1: b})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if mask[0] || mask[5] {
		t.Fatal("poisoned points must not be certified as not-varying")
	}
	ok := 0
	for _, m := range mask {
		if m {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("healthy points should still pass the mask")
	}

	// Fully poisoned statistics: typed degenerate error, no mask.
	for i := range a.Sum {
		a.Sum[i] = math.NaN()
	}
	if _, _, err := sel.NotVaryingMask(map[int]*PointStats{0: a, 1: b}); !errors.Is(err, stats.ErrDegenerate) {
		t.Fatalf("all-NaN stats err = %v, want stats.ErrDegenerate", err)
	}
}

func TestFitPCARejectsNonFinite(t *testing.T) {
	X := [][]float64{{1, 2}, {3, math.NaN()}, {5, 6}}
	if _, err := FitPCA(context.Background(), X, 2); !errors.Is(err, stats.ErrDegenerate) {
		t.Fatalf("FitPCA err = %v, want stats.ErrDegenerate", err)
	}
}

// A constant input column is a zero-variance principal direction; FitPCA must
// drop it rather than keep a round-off eigenvector, and Transform output must
// stay finite.
func TestFitPCADropsZeroVarianceComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X := make([][]float64, 40)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), 7.5, rng.NormFloat64() * 2}
	}
	pc, err := FitPCA(context.Background(), X, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pc.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d, want 2 (one constant column)", pc.NumComponents())
	}
	for _, v := range pc.EigVals {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("kept eigenvalue %v not positive", v)
		}
	}
	y, err := pc.Transform(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AllFinite(y) {
		t.Fatalf("Transform produced non-finite output %v", y)
	}
}

func TestPCATransformRejectsCorruptedMean(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 7}}
	pc, err := FitPCA(context.Background(), X, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc.Mean = pc.Mean[:1] // simulate a truncated persisted state
	if _, err := pc.Transform([]float64{1, 2}); err == nil {
		t.Fatal("want error for corrupted mean, got nil")
	}
}

// FitPipelineCtx must return context.Canceled promptly when cancelled
// mid-fit on a large dataset, not run the fit to completion.
func TestFitPipelineCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	traces, labels, programs := synthDataset(rng, 60, 3, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultPipelineConfig()
	cfg.NumComponents = 3
	start := time.Now()
	_, _, err := FitPipelineCtx(ctx, traces, labels, programs, 2, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A pre-cancelled fit must return almost immediately — far faster than
	// the 360-trace CWT pass it skipped.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled fit took %v", elapsed)
	}

	// And a live context still fits.
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil || pl == nil {
		t.Fatalf("live-context fit failed: %v", err)
	}
}

func TestExtractAllCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	traces, labels, programs := synthDataset(rng, 10, 2, false)
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.ExtractAllCtx(ctx, traces); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// accumulateStats computes the per-point Gaussian statistics of a set of
// traces, as FitPipelineCtx's statistics pass does for one class: the
// scalograms are computed in parallel and accumulated serially in trace
// order, so the result does not depend on the worker count.
func accumulateStats(s *Selector, traces [][]float64) (*PointStats, error) {
	if len(traces) < 2 {
		return nil, errors.New("features: need at least 2 traces for statistics")
	}
	for _, tr := range traces {
		if len(tr) != s.TraceLen {
			return nil, fmt.Errorf("features: trace length %d, want %d", len(tr), s.TraceLen)
		}
	}
	ps := NewPointStats(s.numPoints())
	flats, err := s.CWT.TransformFlatBatchCtx(context.Background(), traces)
	if err != nil {
		return nil, err
	}
	for _, flat := range flats {
		if err := ps.Add(flat); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// ExplainedVariance returns the fraction of total variance captured by the
// first m components (m ≤ k); the total is taken over all p directions, so
// callers should fit with k = p when they need exact ratios. Only the PCA
// tests ask for it.
func (pc *PCA) ExplainedVariance(m int) float64 {
	if m > len(pc.EigVals) {
		m = len(pc.EigVals)
	}
	var kept, total float64
	for i, v := range pc.EigVals {
		if v < 0 {
			v = 0
		}
		if i < m {
			kept += v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return kept / total
}

// PairVector slices a pair-specific feature vector (the paper's x_{i,j} for
// majority voting) out of the unified raw feature vector of a trace.
// maxVars truncates to the strongest maxVars points (0 = all). Only these
// tests slice one pair from a raw trace; the voting experiment calls
// PairVectorFromScalogram with one scalogram per trace.
func (pl *Pipeline) PairVector(pair int, trace []float64, maxVars int) ([]float64, error) {
	flat, err := pl.RawScalogram(trace)
	if err != nil {
		return nil, err
	}
	return pl.PairVectorFromScalogram(pair, flat, maxVars)
}
