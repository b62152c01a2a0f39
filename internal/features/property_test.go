package features

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testkit"
)

// componentsOf returns the PCA component rows as plain slices for the
// testkit Gram-matrix check.
func componentsOf(pc *PCA) [][]float64 {
	out := make([][]float64, pc.Components.Rows)
	for i := range out {
		out[i] = pc.Components.Row(i)
	}
	return out
}

// TestPCAComponentsOrthonormal pins the defining invariant of the PCA basis:
// component rows are orthonormal, i.e. their Gram matrix is the identity.
// Sizes cover both n > p and the n <= p subspace regime.
func TestPCAComponentsOrthonormal(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 12}, func(g *testkit.G) error {
		n := g.Size(3, 40)
		p := g.Size(2, 30)
		k := g.IntBetween(1, min(n, p))
		pc, err := FitPCA(context.Background(), g.Matrix(n, p), k)
		if err != nil {
			return err
		}
		comps := componentsOf(pc)
		gram := testkit.GramMatrix(comps)
		want := testkit.Identity(len(comps))
		for i := range gram {
			for j := range gram[i] {
				if !testkit.Close(gram[i][j], want[i][j], testkit.LinalgTol, testkit.LinalgTol) {
					return fmt.Errorf("gram[%d][%d] = %g, want %g (n=%d, p=%d, k=%d)",
						i, j, gram[i][j], want[i][j], n, p, k)
				}
			}
		}
		return nil
	})
}

// TestSelectPairSwapInvariance asserts that feature selection does not
// depend on which class of a pair is "first": swapping (a, b) and their
// stats/masks must select the identical point list. SymmetricKLGaussian is
// exactly commutative in floating point, so the equality is exact.
func TestSelectPairSwapInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sel, err := NewSelector(160)
	if err != nil {
		t.Fatal(err)
	}
	var a, b [][]float64
	for i := 0; i < 30; i++ {
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
	fwd, err := sel.SelectPair(0, 1, sa, sb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := sel.SelectPair(1, 0, sb, sa, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd.Points) != len(rev.Points) {
		t.Fatalf("swap changed selection size: %d vs %d", len(fwd.Points), len(rev.Points))
	}
	for i := range fwd.Points {
		if fwd.Points[i] != rev.Points[i] {
			t.Fatalf("swap changed point %d: %+v vs %+v", i, fwd.Points[i], rev.Points[i])
		}
	}
	testkit.ExactEqual(t, rev.KL, fwd.KL, "pair KL scores under swap")
}

// TestSelectPairTraceOrderInvariance asserts selection is stable under
// reordering of the profiling traces. Accumulated moments differ only in
// final-ulp rounding between orders, so the KL surface is compared at 1e-9
// and the selected points must coincide.
func TestSelectPairTraceOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sel, err := NewSelector(160)
	if err != nil {
		t.Fatal(err)
	}
	var a, b [][]float64
	for i := 0; i < 30; i++ {
		a = append(a, synthTrace(rng, 0, 0))
		b = append(b, synthTrace(rng, 1, 0))
	}
	perm := func(xs [][]float64) [][]float64 {
		out := append([][]float64(nil), xs...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	sa1, _ := accumulateStats(sel, a)
	sb1, _ := accumulateStats(sel, b)
	sa2, _ := accumulateStats(sel, perm(a))
	sb2, _ := accumulateStats(sel, perm(b))

	kl1, err := sel.BetweenClassKL(sa1, sb1)
	if err != nil {
		t.Fatal(err)
	}
	kl2, err := sel.BetweenClassKL(sa2, sb2)
	if err != nil {
		t.Fatal(err)
	}
	testkit.AllClose2D(t, kl2, kl1, 1e-9, 1e-12, "KL surface under trace reorder")

	pf1, err := sel.SelectPair(0, 1, sa1, sb1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := sel.SelectPair(0, 1, sa2, sb2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf1.Points) != len(pf2.Points) {
		t.Fatalf("trace reorder changed selection size: %d vs %d", len(pf1.Points), len(pf2.Points))
	}
	for i := range pf1.Points {
		if pf1.Points[i] != pf2.Points[i] {
			t.Fatalf("trace reorder changed point %d: %+v vs %+v", i, pf1.Points[i], pf2.Points[i])
		}
	}
}

// TestExtractAllAgreesSerialParallelRetried pins the extraction agreement
// invariant end to end: a per-trace Extract loop, ExtractAllCtx at one worker,
// ExtractAllCtx at several workers, and ExtractAllCtx retried after a
// cancellation must all produce bitwise-identical feature matrices.
func TestExtractAllAgreesSerialParallelRetried(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(21))
	traces, labels, programs := synthDataset(rng, 6, 3, true)
	cfg := DefaultPipelineConfig()
	cfg.NumComponents = 5
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	serial := make([][]float64, len(traces))
	for i, tr := range traces {
		f, err := pl.Extract(tr)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = f
	}

	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		got, err := pl.ExtractAllCtx(context.Background(), traces)
		if err != nil {
			t.Fatalf("ExtractAllCtx with %d workers: %v", workers, err)
		}
		testkit.ExactEqual2D(t, got, serial, fmt.Sprintf("ExtractAllCtx(%d workers) vs serial Extract", workers))
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.ExtractAllCtx(cancelled, traces); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExtractAllCtx returned %v, want context.Canceled", err)
	}
	got, err := pl.ExtractAllCtx(context.Background(), traces)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	testkit.ExactEqual2D(t, got, serial, "ExtractAllCtx retried after cancel vs serial")
}
