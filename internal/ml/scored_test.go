package ml

import (
	"math"
	"math/rand"
	"testing"
)

// allScoredClassifiers returns every classifier family as a ScoredClassifier.
// It doubles as a compile-time check that all five families implement the
// interface.
func allScoredClassifiers() []ScoredClassifier {
	return []ScoredClassifier{
		NewLDA(),
		NewQDA(),
		NewGaussianNB(),
		NewKNN(3),
		NewSVM(10, RBFKernel{Gamma: 0.5}),
		NewSVM(10, LinearKernel{}),
	}
}

// checkScored asserts the structural invariants every ScoredPrediction must
// satisfy: finite normalized posteriors in [0, 1] summing to 1, the winner's
// confidence matching its posterior, the runner-up strictly distinct, and a
// non-negative margin equal to the winner/runner-up posterior gap.
func checkScored(t *testing.T, name string, sp ScoredPrediction, nClasses int) {
	t.Helper()
	if sp.Label < 0 || sp.Label >= nClasses {
		t.Fatalf("%s: label %d out of range [0, %d)", name, sp.Label, nClasses)
	}
	if len(sp.Posteriors) != nClasses {
		t.Fatalf("%s: %d posteriors, want %d", name, len(sp.Posteriors), nClasses)
	}
	var sum float64
	for i, p := range sp.Posteriors {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
			t.Fatalf("%s: posterior[%d] = %g not in [0, 1]", name, i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("%s: posteriors sum to %g, want 1", name, sum)
	}
	if sp.Confidence != sp.Posteriors[sp.Label] {
		t.Fatalf("%s: confidence %g != posterior[label] %g", name, sp.Confidence, sp.Posteriors[sp.Label])
	}
	if nClasses >= 2 {
		if sp.RunnerUp < 0 || sp.RunnerUp >= nClasses || sp.RunnerUp == sp.Label {
			t.Fatalf("%s: runner-up %d invalid for label %d", name, sp.RunnerUp, sp.Label)
		}
		wantMargin := sp.Posteriors[sp.Label] - sp.Posteriors[sp.RunnerUp]
		if math.Abs(sp.Margin-wantMargin) > 1e-12 || sp.Margin < -1e-12 {
			t.Fatalf("%s: margin %g, want %g (>= 0)", name, sp.Margin, wantMargin)
		}
		// The runner-up is the strongest non-winner.
		for i, p := range sp.Posteriors {
			if i != sp.Label && p > sp.Posteriors[sp.RunnerUp]+1e-12 {
				t.Fatalf("%s: class %d (%g) beats declared runner-up %d (%g)",
					name, i, p, sp.RunnerUp, sp.Posteriors[sp.RunnerUp])
			}
		}
	}
}

// TestPredictScoredAgreesWithPredict is the core agreement property: on the
// same input the scored path must return the exact label Predict does, for
// every classifier family, including ambiguous probes far from the training
// clusters where tie-breaks matter.
func TestPredictScoredAgreesWithPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const k, dim = 3, 4
	X, y := gaussianBlobs(rng, k, 40, dim, 5, 0.5)
	for _, clf := range allScoredClassifiers() {
		if err := clf.Fit(X, y); err != nil {
			t.Fatalf("%s: fit: %v", clf.Name(), err)
		}
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, dim)
			for j := range x {
				// Mix in-distribution probes with ambiguous far-field ones.
				x[j] = rng.NormFloat64() * 6
			}
			want, err := clf.Predict(x)
			if err != nil {
				t.Fatalf("%s: predict: %v", clf.Name(), err)
			}
			sp, err := clf.PredictScored(x)
			if err != nil {
				t.Fatalf("%s: predict scored: %v", clf.Name(), err)
			}
			if sp.Label != want {
				t.Fatalf("%s: scored label %d != Predict label %d at %v", clf.Name(), sp.Label, want, x)
			}
			checkScored(t, clf.Name(), sp, k)
		}
	}
}

// TestPredictScoredConfidentNearCluster checks that confidence behaves like
// confidence: probes at a training cluster's center score higher than the
// uniform floor and win by a clear margin.
func TestPredictScoredConfidentNearCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	X, y := gaussianBlobs(rng, 3, 60, 4, 6, 0.4)
	// Class centers: average the training points per class.
	centers := make([][]float64, 3)
	counts := make([]int, 3)
	for i, x := range X {
		c := y[i]
		if centers[c] == nil {
			centers[c] = make([]float64, len(x))
		}
		for j, v := range x {
			centers[c][j] += v
		}
		counts[c]++
	}
	for c := range centers {
		for j := range centers[c] {
			centers[c][j] /= float64(counts[c])
		}
	}
	for _, clf := range allScoredClassifiers() {
		if err := clf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for c, center := range centers {
			sp, err := clf.PredictScored(center)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Label != c {
				t.Fatalf("%s: center of class %d classified as %d", clf.Name(), c, sp.Label)
			}
			if sp.Confidence <= 1.0/3+0.05 {
				t.Fatalf("%s: confidence %g at class %d center barely beats uniform", clf.Name(), sp.Confidence, c)
			}
			if sp.Margin <= 0 {
				t.Fatalf("%s: margin %g at class %d center", clf.Name(), sp.Margin, c)
			}
		}
	}
}

// TestPredictScoredErrors mirrors Predict's error contract: unfitted models
// and wrong-dimension probes fail instead of returning a score.
func TestPredictScoredErrors(t *testing.T) {
	for _, clf := range allScoredClassifiers() {
		if _, err := clf.PredictScored([]float64{1}); err == nil {
			t.Fatalf("%s: PredictScored before fit should fail", clf.Name())
		}
	}
	rng := rand.New(rand.NewSource(33))
	X, y := gaussianBlobs(rng, 2, 20, 3, 5, 0.4)
	for _, clf := range allScoredClassifiers() {
		if err := clf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if _, err := clf.PredictScored([]float64{1}); err == nil {
			t.Fatalf("%s: wrong-dimension PredictScored should fail", clf.Name())
		}
	}
}

// TestVoteScoredAgreesWithVote checks the pairwise voter's scored path on
// the same hand-built pair setup TestPairwiseVoter uses, plus the invariants.
func TestVoteScoredAgreesWithVote(t *testing.T) {
	v, err := NewPairwiseVoter(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.NumPairs(); i++ {
		clf := NewLDA()
		X := [][]float64{{-1}, {-1.2}, {-0.8}, {1}, {1.2}, {0.8}}
		y := []int{0, 0, 0, 1, 1, 1}
		if err := clf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := v.SetPairClassifier(i, clf); err != nil {
			t.Fatal(err)
		}
	}
	probes := [][][]float64{
		{{+1}, {-1}, {-1}}, // class 1 wins two pairs
		{{-1}, {-1}, {-1}}, // class 0 wins its pairs
		{{+1}, {+1}, {+1}}, // classes 1 and 2 split; tie-break
	}
	for _, pf := range probes {
		want, err := v.Vote(pf)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := v.VoteScored(pf)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Label != want {
			t.Fatalf("VoteScored label %d != Vote label %d", sp.Label, want)
		}
		checkScored(t, "voter", sp, 3)
		// Vote-fraction semantics: each pair contributes one vote.
		if math.Abs(sp.Confidence*float64(v.NumPairs())-math.Round(sp.Confidence*float64(v.NumPairs()))) > 1e-9 {
			t.Fatalf("voter confidence %g is not a vote fraction over %d pairs", sp.Confidence, v.NumPairs())
		}
	}
	if _, err := v.VoteScored([][]float64{{1}}); err == nil {
		t.Fatal("wrong pair count should fail")
	}
}

// TestScoredHelpers pins the normalization helpers' edge cases.
func TestScoredHelpers(t *testing.T) {
	// Log scores with -Inf (impossible class) normalize cleanly.
	sp := scoredFromLogScores([]float64{0, math.Inf(-1), -1}, make([]float64, 3))
	if sp.Label != 0 || sp.Posteriors[1] != 0 {
		t.Fatalf("log-score normalization: %+v", sp)
	}
	checkScored(t, "logscores", sp, 3)
	// All-zero weights degenerate to uniform with winner 0.
	sp = scoredFromWeights([]float64{0, 0, 0, 0}, make([]float64, 4))
	if sp.Label != 0 || sp.Confidence != 0.25 || sp.Margin != 0 {
		t.Fatalf("degenerate weights: %+v", sp)
	}
	checkScored(t, "zeroweights", sp, 4)
	// squashMargin is bounded and monotone.
	if squashMargin(0) != 0.5 {
		t.Fatalf("squashMargin(0) = %g", squashMargin(0))
	}
	prev := -1.0
	for _, m := range []float64{-1e9, -3, -0.5, 0, 0.5, 3, 1e9} {
		s := squashMargin(m)
		if s <= 0 || s >= 1 || s <= prev {
			t.Fatalf("squashMargin(%g) = %g not in (0,1) or not monotone", m, s)
		}
		prev = s
	}
}

// samePrediction reports whether two scored predictions are bitwise equal.
func samePrediction(a, b ScoredPrediction) bool {
	if a.Label != b.Label || a.RunnerUp != b.RunnerUp || len(a.Posteriors) != len(b.Posteriors) ||
		math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) ||
		math.Float64bits(a.Margin) != math.Float64bits(b.Margin) {
		return false
	}
	for i := range a.Posteriors {
		if math.Float64bits(a.Posteriors[i]) != math.Float64bits(b.Posteriors[i]) {
			return false
		}
	}
	return true
}

// TestPredictScoredScratchReuse pins the scratch contract. One Scratch is
// shared by every family in turn, at three class counts and dimensions, so
// each prediction finds the previous one's values in its buffers; it must
// still return bitwise the prediction of a fresh PredictScored, and
// ScoresScratch the scores of Scores. Once NewScratch has sized a Scratch
// for all of them, a prediction through any of them allocates nothing.
func TestPredictScoredScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	type fitted struct {
		clf ScratchClassifier
		dim int
	}
	var clfs []fitted
	var all []Classifier
	for _, shape := range []struct{ k, dim int }{{3, 4}, {5, 2}, {2, 6}} {
		X, y := gaussianBlobs(rng, shape.k, 30, shape.dim, 5, 0.5)
		for _, c := range allScoredClassifiers() {
			if err := c.Fit(X, y); err != nil {
				t.Fatalf("%s: fit: %v", c.Name(), err)
			}
			clfs = append(clfs, fitted{c.(ScratchClassifier), shape.dim})
			all = append(all, c)
		}
	}
	probe := func(dim int) []float64 {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64() * 6
		}
		return x
	}
	s := &Scratch{}
	for trial := 0; trial < 30; trial++ {
		for _, f := range clfs {
			x := probe(f.dim)
			want, err := f.clf.PredictScored(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.clf.PredictScoredScratch(x, s)
			if err != nil {
				t.Fatal(err)
			}
			if !samePrediction(got, want) {
				t.Fatalf("%s: scratch prediction %+v != fresh %+v", f.clf.Name(), got, want)
			}
			if sc, ok := f.clf.(ScratchScorer); ok {
				want, err := sc.Scores(x)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.ScoresScratch(x, s)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: scratch scores %v != fresh %v", f.clf.Name(), got, want)
					}
				}
			}
		}
	}

	sized := NewScratch(all...)
	probes := make([][]float64, len(clfs))
	for i, f := range clfs {
		probes[i] = probe(f.dim)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for i, f := range clfs {
			if _, err := f.clf.PredictScoredScratch(probes[i], sized); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("%.0f allocations per round of scratch predictions, want 0", allocs)
	}
}
