package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testkit"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %g", Mean(xs))
	}
	// Sum of squared deviations = 32; unbiased variance = 32/7.
	testkit.InDelta(t, Variance(xs), 32.0/7, 1e-12, "variance")
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}

func TestEstimateGaussian(t *testing.T) {
	if _, err := EstimateGaussian([]float64{1}); err == nil {
		t.Fatal("want ErrTooFewSamples")
	}
	g, err := EstimateGaussian([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Mean != 2 {
		t.Fatalf("g = %+v", g)
	}
	testkit.InDelta(t, g.StdDev, math.Sqrt(2), 1e-12, "estimated stddev")
}

func TestKLGaussianIdentical(t *testing.T) {
	g := Gaussian{Mean: 1.5, StdDev: 0.3}
	testkit.InDelta(t, KLGaussian(g, g), 0, 1e-12, "KL(P‖P)")
}

func TestKLGaussianKnownValue(t *testing.T) {
	// P = N(0,1), Q = N(1,1): KL = 1/2 (mean shift of 1 with unit variance).
	p := Gaussian{Mean: 0, StdDev: 1}
	q := Gaussian{Mean: 1, StdDev: 1}
	testkit.InDelta(t, KLGaussian(p, q), 0.5, 1e-12, "KL(N(0,1)‖N(1,1))")
}

func TestKLGaussianAsymmetry(t *testing.T) {
	p := Gaussian{Mean: 0, StdDev: 1}
	q := Gaussian{Mean: 0, StdDev: 3}
	if KLGaussian(p, q) == KLGaussian(q, p) {
		t.Fatal("KL should be asymmetric for different variances")
	}
	testkit.InDelta(t, SymmetricKLGaussian(p, q), SymmetricKLGaussian(q, p), 1e-12,
		"symmetric KL under argument swap")
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(m1, m2 float64, s1, s2 uint8) bool {
		p := Gaussian{Mean: math.Mod(m1, 100), StdDev: 0.01 + float64(s1)/16}
		q := Gaussian{Mean: math.Mod(m2, 100), StdDev: 0.01 + float64(s2)/16}
		return KLGaussian(p, q) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKLIncreasesWithMeanSeparationProperty(t *testing.T) {
	// With equal variances, KL is monotone in |μp−μq|.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 0.5 + rng.Float64()
		d1 := rng.Float64() * 3
		d2 := d1 + 0.1 + rng.Float64()
		k1 := KLGaussian(Gaussian{0, s}, Gaussian{d1, s})
		k2 := KLGaussian(Gaussian{0, s}, Gaussian{d2, s})
		return k2 > k1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKLGaussianFromSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	near := make([]float64, 500)
	far := make([]float64, 500)
	same := make([]float64, 500)
	for i := range near {
		near[i] = rng.NormFloat64()
		same[i] = rng.NormFloat64()
		far[i] = rng.NormFloat64() + 5
	}
	dSame, err := KLGaussianFromSamples(near, same)
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := KLGaussianFromSamples(near, far)
	if err != nil {
		t.Fatal(err)
	}
	if dFar < 10*dSame {
		t.Fatalf("separated classes should have much larger KL: same=%g far=%g", dSame, dFar)
	}
	if _, err := KLGaussianFromSamples([]float64{1}, near); err == nil {
		t.Fatal("want error for too few samples")
	}
}

func TestZScoreNormalizer(t *testing.T) {
	X := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
	}
	var z ZScoreNormalizer
	if _, err := z.Apply([]float64{1, 2}); err == nil {
		t.Fatal("want error before Fit")
	}
	if err := z.Fit(X); err != nil {
		t.Fatal(err)
	}
	out, err := z.ApplyAll(X)
	if err != nil {
		t.Fatal(err)
	}
	// Columns must have mean 0 and unit std after standardization.
	for j := 0; j < 2; j++ {
		col := []float64{out[0][j], out[1][j], out[2][j]}
		testkit.InDelta(t, Mean(col), 0, 1e-12, "standardized column mean")
		testkit.InDelta(t, StdDev(col), 1, 1e-12, "standardized column std")
	}
	if _, err := z.Apply([]float64{1}); err == nil {
		t.Fatal("want dimension error")
	}
	if err := z.Fit([][]float64{{1}}); err == nil {
		t.Fatal("want too-few-samples error")
	}
	if err := z.Fit([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want ragged-row error")
	}
}

func TestNormalizeTraceRemovesOffsetAndGain(t *testing.T) {
	base := []float64{0.1, 0.9, -0.4, 0.3, 0.6, -0.2}
	shifted := make([]float64, len(base))
	for i, v := range base {
		shifted[i] = 1.7*v + 42 // gain + DC offset (the covariate shift model)
	}
	a := NormalizeTrace(base)
	b := NormalizeTrace(shifted)
	testkit.AllClose(t, b, a, 0, 1e-9, "normalization of gain+offset shifted trace")
}

func TestNormalizeTraceProperty(t *testing.T) {
	// Output always has (population) mean ~0 and std ~1 for non-constant input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 10+int(rng.Int31n(50)))
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		y := NormalizeTrace(x)
		m := Mean(y)
		var ss float64
		for _, v := range y {
			ss += (v - m) * (v - m)
		}
		sd := math.Sqrt(ss / float64(len(y)))
		return testkit.Close(m, 0, 0, 1e-9) && testkit.Close(sd, 1, 0, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeTraceDegenerate(t *testing.T) {
	if out := NormalizeTrace(nil); len(out) != 0 {
		t.Fatal("empty input should yield empty output")
	}
	out := NormalizeTrace([]float64{5, 5, 5})
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("constant trace normalized to %v", out)
		}
	}
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy = %g", acc)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Fatal("want empty error")
	}
}

// Regression: a zero-σ side (constant feature point) must yield a large but
// finite divergence — a single flat CWT point used to send the between-class
// KL map to ±Inf and poison peak picking.
func TestKLGaussianZeroSigmaStaysFinite(t *testing.T) {
	flat := Gaussian{Mean: 1.5, StdDev: 0}
	spread := Gaussian{Mean: 0, StdDev: 2}
	for _, d := range []float64{
		KLGaussian(flat, spread),
		KLGaussian(spread, flat),
		KLGaussian(flat, flat),
		SymmetricKLGaussian(flat, spread),
		SymmetricKLGaussian(flat, flat),
	} {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("divergence with zero sigma is not finite: %v", d)
		}
	}
	// Two distinct constants must still register as strongly distinct.
	other := Gaussian{Mean: -1.5, StdDev: 0}
	if d := SymmetricKLGaussian(flat, other); d <= 0 || math.IsInf(d, 0) {
		t.Fatalf("divergence between distinct constants = %v, want large finite positive", d)
	}
}

func TestEstimateGaussianRejectsNonFinite(t *testing.T) {
	for _, xs := range [][]float64{
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{math.Inf(-1), 2, 3},
	} {
		if _, err := EstimateGaussian(xs); !errors.Is(err, ErrDegenerate) {
			t.Fatalf("EstimateGaussian(%v) err = %v, want ErrDegenerate", xs, err)
		}
	}
}

func TestZScoreFitRejectsNonFinite(t *testing.T) {
	z := &ZScoreNormalizer{}
	X := [][]float64{{1, 2}, {3, math.NaN()}, {5, 6}}
	if err := z.Fit(X); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("Fit err = %v, want ErrDegenerate", err)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{0, -1, 2.5}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{0, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite slice reported finite")
	}
}

// Accuracy returns the fraction of positions where pred equals want. No
// non-test code scores label slices; the classifiers count their own hits.
func Accuracy(pred, want []int) (float64, error) {
	if len(pred) != len(want) {
		return 0, fmt.Errorf("stats: Accuracy length mismatch %d vs %d", len(pred), len(want))
	}
	if len(pred) == 0 {
		return 0, errors.New("stats: Accuracy of empty slice")
	}
	hit := 0
	for i := range pred {
		if pred[i] == want[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred)), nil
}
