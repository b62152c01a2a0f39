package features

import (
	"fmt"
	"math/rand"
	"testing"

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
	pl, _, err := FitPipeline(traces, labels, programs, 2, cfg)
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
		sf, err := serial.ExtractAll(traces)
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetWorkers(4)
		pf, err := par.ExtractAll(traces)
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

// TestFitPCASubspaceParallelEquivalence fits a PCA wider than jacobiMaxDim,
// so block power iteration runs both of its products on the pool, and
// requires components and eigenvalues bitwise equal at 1 and 4 workers.
// Every seventh column is constant and centres to exact zeros, which the
// products skip.
func TestFitPCASubspaceParallelEquivalence(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(31))
	const n, p, k = 40, jacobiMaxDim + 90, 6
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
	fit := func(workers int) *PCA {
		parallel.SetWorkers(workers)
		pc, err := FitPCA(X, k)
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

	cf, err := cached.ExtractAll(traces)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := uncached.ExtractAll(traces)
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
// FitPipeline hands back to ExtractAll over the same training traces,
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
				pl, X, err := FitPipeline(traces, labels, programs, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pl.ExtractAll(traces)
				if err != nil {
					t.Fatal(err)
				}
				testkit.ExactEqual2D(t, X, want, fmt.Sprintf("cache=%v norm=%v standardize=%v: FitPipeline features vs ExtractAll", cache, norm, standardize))
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
