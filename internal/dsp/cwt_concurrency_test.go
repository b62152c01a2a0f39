package dsp

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

func randSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestTransformConcurrentMatchesSerial hammers one CWT instance from many
// goroutines — mixed signal lengths, so the plan cache is exercised too —
// and requires every result to match the serial answer exactly.
func TestTransformConcurrentMatchesSerial(t *testing.T) {
	c, err := NewCWT(12, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	lengths := []int{64, 100, 64, 128, 100, 96, 64, 128}
	signals := make([][]float64, len(lengths))
	want := make([][][]float64, len(lengths))
	for i, n := range lengths {
		signals[i] = randSignal(rng, n)
		want[i] = c.Transform(signals[i])
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make([]string, len(signals)*rounds)
	for r := 0; r < rounds; r++ {
		for i := range signals {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				got := c.Transform(signals[i])
				for j := range got {
					for k := range got[j] {
						if got[j][k] != want[i][j][k] {
							errs[slot] = "mismatch"
							return
						}
					}
				}
			}(r*len(signals)+i, i)
		}
	}
	wg.Wait()
	for slot, e := range errs {
		if e != "" {
			t.Fatalf("concurrent Transform diverged from serial (slot %d)", slot)
		}
	}
}

// TestTransformFlatBatchMatchesSerial checks the batch path is bit-identical
// to a serial per-trace loop at several worker counts.
func TestTransformFlatBatchMatchesSerial(t *testing.T) {
	c, err := NewCWT(10, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xs := make([][]float64, 9)
	for i := range xs {
		xs[i] = randSignal(rng, 80)
	}
	want := make([][]float64, len(xs))
	for i, x := range xs {
		want[i] = c.TransformFlat(x)
	}
	defer parallel.SetWorkers(0)
	for _, w := range []int{1, 2, 4} {
		parallel.SetWorkers(w)
		got, err := c.TransformFlatBatchCtx(context.Background(), xs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: trace %d sample %d: %v != %v", w, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	if _, err := c.TransformFlatBatchCtx(context.Background(), [][]float64{xs[0], xs[0][:10], xs[0]}); err == nil {
		t.Fatal("mixed-length batch should fail")
	}
}

// TestTransformCountHook verifies the instrumentation the inference-path
// tests build on: the dsp.cwt.transforms registry counter bumps once per
// trace, for both single and batch transforms.
func TestTransformCountHook(t *testing.T) {
	defer obs.SetDefault(nil)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	transforms := reg.Counter("dsp.cwt.transforms")
	c, err := NewCWT(6, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := randSignal(rng, 50)
	before := transforms.Value()
	c.Transform(x)
	c.TransformFlat(x)
	if got := transforms.Value() - before; got != 2 {
		t.Fatalf("2 single transforms counted as %d", got)
	}
	before = transforms.Value()
	if _, err := c.TransformFlatBatchCtx(context.Background(), [][]float64{x, x, x}); err != nil {
		t.Fatal(err)
	}
	if got := transforms.Value() - before; got != 3 {
		t.Fatalf("batch of 3 counted as %d", got)
	}
}
