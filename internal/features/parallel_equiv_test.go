package features

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/testkit"
)

// fitBoth fits the same dataset at two worker counts and returns both
// pipelines.
func fitAt(t *testing.T, workers int, cfg PipelineConfig) (*Pipeline, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	traces, labels, programs := synthDataset(rng, 6, 3, true)
	parallel.SetWorkers(workers)
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl, traces
}

// TestFitPipelineParallelEquivalence requires the fitted pipeline — selected
// points, pair features, and the features it extracts — to be bit-identical
// between a single-worker and a multi-worker fit. The container may have one
// CPU, so the worker count is pinned explicitly.
func TestFitPipelineParallelEquivalence(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, cfg := range []PipelineConfig{DefaultPipelineConfig(), CSAPipelineConfig()} {
		cfg.NumComponents = 4
		serial, traces := fitAt(t, 1, cfg)
		par, _ := fitAt(t, 4, cfg)

		if len(serial.Points) != len(par.Points) {
			t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(par.Points))
		}
		for i := range serial.Points {
			if serial.Points[i] != par.Points[i] {
				t.Fatalf("point %d differs: %+v vs %+v", i, serial.Points[i], par.Points[i])
			}
		}
		if len(serial.Pairs) != len(par.Pairs) {
			t.Fatalf("pair counts differ")
		}
		for i := range serial.Pairs {
			a, b := serial.Pairs[i], par.Pairs[i]
			if a.A != b.A || a.B != b.B || len(a.Points) != len(b.Points) {
				t.Fatalf("pair %d differs: %+v vs %+v", i, a, b)
			}
			for j := range a.Points {
				if a.Points[j] != b.Points[j] || a.KL[j] != b.KL[j] {
					t.Fatalf("pair %d point %d differs", i, j)
				}
			}
		}
		sf, err := serial.ExtractAllCtx(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetWorkers(4)
		pf, err := par.ExtractAllCtx(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sf {
			for j := range sf[i] {
				if sf[i][j] != pf[i][j] {
					t.Fatalf("feature [%d][%d] differs: %v vs %v", i, j, sf[i][j], pf[i][j])
				}
			}
		}
	}
}

// widePCAInput is a 40×(jacobiMaxDim+90) input, so FitPCA takes the
// subspace path and runs both of its products on the pool. Every seventh
// column is constant and centres to exact zeros, which the products skip.
func widePCAInput() [][]float64 {
	rng := rand.New(rand.NewSource(31))
	const n, p = 40, jacobiMaxDim + 90
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for j := range X[i] {
			X[i][j] = 1.5
			if j%7 != 0 {
				X[i][j] = rng.NormFloat64()
			}
		}
	}
	return X
}

// TestFitPCASubspaceParallelEquivalence fits a PCA wider than jacobiMaxDim
// and requires components and eigenvalues bitwise equal at 1 and 4
// workers.
func TestFitPCASubspaceParallelEquivalence(t *testing.T) {
	defer parallel.SetWorkers(0)
	const k = 6
	X := widePCAInput()
	fit := func(workers int) *PCA {
		parallel.SetWorkers(workers)
		pc, err := FitPCA(context.Background(), X, k)
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	serial, par := fit(1), fit(4)
	if serial.NumComponents() != k {
		t.Fatalf("kept %d components, want %d", serial.NumComponents(), k)
	}
	testkit.ExactEqual(t, par.Components.Data, serial.Components.Data, "components at 4 workers vs 1")
	testkit.ExactEqual(t, par.EigVals, serial.EigVals, "eigenvalues at 4 workers vs 1")
}

// TestFitPCASubspaceCancelled: the subspace fit's pool products run on the
// fit's context, so a cancelled context stops the fit with its error.
func TestFitPCASubspaceCancelled(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitPCA(ctx, widePCAInput(), 6); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitPCA under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestFitPCASubspaceCreditsSpan: the pool's busy time on the subspace
// fit's products is credited to the span in the fit's context, as the
// features.pca stage of a traced training reports it.
func TestFitPCASubspaceCreditsSpan(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	tr := obs.NewTracer()
	ctx, sp := obs.Span(obs.WithTracer(context.Background(), tr), "features.pca")
	if _, err := FitPCA(ctx, widePCAInput(), 6); err != nil {
		t.Fatal(err)
	}
	sp.End()
	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("tree = %+v", roots)
	}
	if roots[0].BusyMS <= 0 || roots[0].Workers != 2 {
		t.Fatalf("features.pca span: busy %g ms on %d workers, want busy time on 2", roots[0].BusyMS, roots[0].Workers)
	}
}

// TestFitPipelineCacheEquivalence forces the chunked recompute path (cache
// budget zero) and requires it to produce the same pipeline as the cached
// one-CWT-per-trace path.
func TestFitPipelineCacheEquivalence(t *testing.T) {
	defer parallel.SetWorkers(0)
	defer func(v int) { MaxScalogramCacheBytes = v }(MaxScalogramCacheBytes)

	cfg := CSAPipelineConfig()
	cfg.NumComponents = 4
	cached, traces := fitAt(t, 4, cfg)
	MaxScalogramCacheBytes = 0
	uncached, _ := fitAt(t, 4, cfg)

	cf, err := cached.ExtractAllCtx(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := uncached.ExtractAllCtx(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cf {
		for j := range cf[i] {
			if cf[i][j] != uf[i][j] {
				t.Fatalf("cached/uncached feature [%d][%d] differs: %v vs %v", i, j, cf[i][j], uf[i][j])
			}
		}
	}
}

// TestFitPipelineFeaturesMatchExtractAll pins the classifier inputs
// FitPipelineCtx hands back to ExtractAllCtx over the same training traces,
// bitwise, with the scalogram cache on and forced off, PerTraceNorm on and
// off, and Standardize on and off: training on them must be training on
// what a second CWT pass would compute.
func TestFitPipelineFeaturesMatchExtractAll(t *testing.T) {
	defer parallel.SetWorkers(0)
	defer func(v int) { MaxScalogramCacheBytes = v }(MaxScalogramCacheBytes)
	parallel.SetWorkers(4)
	rng := rand.New(rand.NewSource(23))
	traces, labels, programs := synthDataset(rng, 6, 3, true)
	for _, cache := range []bool{true, false} {
		MaxScalogramCacheBytes = 0
		if cache {
			MaxScalogramCacheBytes = 512 << 20
		}
		for _, norm := range []bool{false, true} {
			for _, standardize := range []bool{false, true} {
				cfg := DefaultPipelineConfig()
				cfg.NumComponents = 4
				cfg.PerTraceNorm, cfg.Standardize = norm, standardize
				pl, X, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pl.ExtractAllCtx(context.Background(), traces)
				if err != nil {
					t.Fatal(err)
				}
				testkit.ExactEqual2D(t, X, want, fmt.Sprintf("cache=%v norm=%v standardize=%v: FitPipelineCtx features vs ExtractAllCtx", cache, norm, standardize))
			}
		}
	}
}

// TestExtractFromScalogramMatchesExtract checks the shared-scalogram path
// the experiments vote with is exactly the per-call path: RawScalogram +
// PairVectorFromScalogram == PairVector, for both normalization regimes.
// (The scalogram-sharing decode this test was named for is gone; inference
// is sparse-only and pinned against Extract by TestExtractSparseMatchesFull.)
func TestExtractFromScalogramMatchesExtract(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, cfg := range []PipelineConfig{DefaultPipelineConfig(), CSAPipelineConfig()} {
		cfg.NumComponents = 4
		pl, traces := fitAt(t, 1, cfg)
		for _, tr := range traces[:6] {
			flat, err := pl.RawScalogram(tr)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < pl.PairCount(); p++ {
				wv, err := pl.PairVector(p, tr, 3)
				if err != nil {
					t.Fatal(err)
				}
				gv, err := pl.PairVectorFromScalogram(p, flat, 3)
				if err != nil {
					t.Fatal(err)
				}
				for j := range wv {
					if wv[j] != gv[j] {
						t.Fatalf("pair %d vector differs at %d", p, j)
					}
				}
			}
		}
		if _, err := pl.PairVectorFromScalogram(0, make([]float64, 3), 0); err == nil {
			t.Fatal("wrong-size scalogram should fail")
		}
	}
}
