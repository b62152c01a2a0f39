package features

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// fitTestPipeline fits a small pipeline on the synthetic two-class dataset
// under the given config, ready for sparse-vs-full comparisons.
func fitTestPipeline(t *testing.T, cfg PipelineConfig) *Pipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	traces, labels, programs := synthDataset(rng, 6, 3, true)
	cfg.NumComponents = 5
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestExtractSparseMatchesFull is the tentpole property: on any finite trace,
// ExtractSparse — the inference path — must agree with the full-FFT Extract
// within testkit.CWTTol, for every normalization configuration, and evaluate
// exactly the unified point set.
func TestExtractSparseMatchesFull(t *testing.T) {
	configs := map[string]PipelineConfig{
		"no-norm":    DefaultPipelineConfig(),
		"norm-trace": CSAPipelineConfig(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			pl := fitTestPipeline(t, cfg)
			testkit.Check(t, testkit.CheckConfig{Runs: 16}, func(g *testkit.G) error {
				trace := g.Trace(pl.TraceLen())
				full, err := pl.Extract(trace)
				if err != nil {
					return err
				}
				sparse, err := pl.ExtractSparse(trace)
				if err != nil {
					return err
				}
				if len(sparse) != len(full) {
					return fmt.Errorf("sparse produced %d features, full %d", len(sparse), len(full))
				}
				for i := range sparse {
					if !testkit.Close(sparse[i], full[i], testkit.CWTTol, testkit.CWTTol) {
						return fmt.Errorf("feature %d: sparse %g vs Extract %g", i, sparse[i], full[i])
					}
				}
				return nil
			})
			cells, err := pl.SparseCells()
			if err != nil {
				t.Fatal(err)
			}
			if cells != len(pl.Points) {
				t.Fatalf("SparseCells = %d, want %d", cells, len(pl.Points))
			}
		})
	}
}

// TestSparseEdgeCellsMatchScalogram forces the sparse evaluator through
// trace-edge cells — all four corners of the time–frequency plane plus random
// cells — where the kernel window is clipped by the trace boundary, and
// requires each cell value to match the full scalogram within CWTTol. The
// point set is extended before the first sparse use, so both paths read the
// identical cells (only the raw stage is compared; the fitted z/PCA stages
// are sized for the original point count).
func TestSparseEdgeCellsMatchScalogram(t *testing.T) {
	pl := fitTestPipeline(t, CSAPipelineConfig())
	n := pl.TraceLen()
	nScales := pl.sel.CWT.NumScales()
	corners := []Point{
		{Scale: 0, Time: 0},
		{Scale: 0, Time: n - 1},
		{Scale: nScales - 1, Time: 0},
		{Scale: nScales - 1, Time: n - 1},
	}
	rng := rand.New(rand.NewSource(77))
	pl.Points = append(append([]Point(nil), pl.Points...), corners...)
	for i := 0; i < 16; i++ {
		pl.Points = append(pl.Points, Point{Scale: rng.Intn(nScales), Time: rng.Intn(n)})
	}

	testkit.Check(t, testkit.CheckConfig{Runs: 8}, func(g *testkit.G) error {
		trace := g.Trace(n)
		flat, err := pl.RawScalogram(trace)
		if err != nil {
			return err
		}
		sp, err := pl.sparseEval()
		if err != nil {
			return err
		}
		raw, err := sp.Values(stats.NormalizeTrace(trace))
		if err != nil {
			return err
		}
		for i, p := range pl.Points {
			want := flat[pl.sel.flatIndex(p)]
			if !testkit.Close(raw[i], want, testkit.CWTTol, testkit.CWTTol) {
				return fmt.Errorf("cell %+v: sparse %g vs scalogram %g", p, raw[i], want)
			}
		}
		return nil
	})
}

// TestExtractSparseIncapable pins the fail-closed contract for the one
// configuration the sparse path cannot serve, the retired scalogram-plane
// normalization: FitPipelineCtx marks every per-trace-normalized pipeline
// NormTrace, and a persisted state whose NormMode is anything else is
// refused by PipelineFromState — it never decodes with the wrong
// normalization.
func TestExtractSparseIncapable(t *testing.T) {
	pl := fitTestPipeline(t, CSAPipelineConfig())
	st, err := pl.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cfg.NormMode != NormTrace {
		t.Fatalf("fitted per-trace-normalized pipeline persists NormMode %d, want NormTrace", st.Cfg.NormMode)
	}
	for _, mode := range []NormMode{0, NormTrace + 1} {
		plane := *st
		plane.Cfg.NormMode = mode
		if _, err := PipelineFromState(&plane); !errors.Is(err, ErrNormMode) {
			t.Fatalf("PipelineFromState with NormMode %d: err = %v, want ErrNormMode", mode, err)
		}
	}
	// Without per-trace normalization the marker is irrelevant.
	off := *st
	off.Cfg.PerTraceNorm, off.Cfg.NormMode = false, 0
	if _, err := PipelineFromState(&off); err != nil {
		t.Fatalf("un-normalized state refused: %v", err)
	}
}

// TestExtractSparseAllMatchesSerial requires sparse extraction of a batch on
// the worker pool — as Disassemble runs it, every worker sharing one
// pipeline and its lazily built evaluator — to be bitwise identical to
// serial per-trace calls at any worker count.
func TestExtractSparseAllMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(41))
	var traces [][]float64
	for i := 0; i < 9; i++ {
		traces = append(traces, synthTrace(rng, i%2, 0.1*float64(i)))
	}
	want := make([][]float64, len(traces))
	serial := fitTestPipeline(t, CSAPipelineConfig())
	for i, tr := range traces {
		f, err := serial.ExtractSparse(tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f
	}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		pl := fitTestPipeline(t, CSAPipelineConfig()) // fresh: first use races to build the evaluator
		got := make([][]float64, len(traces))
		if err := parallel.ForErrCtx(context.Background(), len(traces), func(i int) error {
			f, err := pl.ExtractSparse(traces[i])
			got[i] = f
			return err
		}); err != nil {
			t.Fatal(err)
		}
		testkit.ExactEqual2D(t, got, want, fmt.Sprintf("sparse batch at %d workers", workers))
	}
}
