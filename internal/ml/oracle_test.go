package ml

import (
	"fmt"
	"testing"

	"repro/internal/testkit"
)

// KNN.Predict (sort-based selection) is checked against
// testkit.BruteKNNPredict (repeated minimum extraction). Continuous random
// features make exact distance ties measure-zero, and both sides break vote
// ties toward the lowest class label, so the predictions must agree exactly.
func TestKNNMatchesBruteForce(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 15}, func(g *testkit.G) error {
		nClasses := g.IntBetween(2, 5)
		dim := g.Size(2, 8)
		n := g.Size(nClasses*2, 60)
		X := g.Matrix(n, dim)
		y := g.Labels(n, nClasses)
		k := g.IntBetween(1, 7)
		if k > n {
			k = n
		}
		clf := NewKNN(k)
		if err := clf.Fit(X, y); err != nil {
			return err
		}
		for q := 0; q < 10; q++ {
			x := g.Matrix(1, dim)[0]
			got, err := clf.Predict(x)
			if err != nil {
				return err
			}
			want := testkit.BruteKNNPredict(X, y, x, k, nClasses)
			if got != want {
				return fmt.Errorf("kNN(k=%d, n=%d, d=%d) predicted %d, brute force %d for query %v",
					k, n, dim, got, want, x)
			}
		}
		return nil
	})
}

// fixedClassifier ignores its input and always answers the same label —
// enough to drive the voter through every tally path deterministically.
type fixedClassifier struct{ out int }

func (f fixedClassifier) Name() string                   { return "fixed" }
func (f fixedClassifier) Fit([][]float64, []int) error   { return nil }
func (f fixedClassifier) Predict([]float64) (int, error) { return f.out, nil }

// errClassifier fails every prediction, for the error-propagation path.
type errClassifier struct{}

func (errClassifier) Name() string                 { return "err" }
func (errClassifier) Fit([][]float64, []int) error { return nil }
func (errClassifier) Predict([]float64) (int, error) {
	return 0, fmt.Errorf("ml: broken pair classifier")
}

// votePlan wires a voter over nClasses where pair (a,b) answers according to
// winners[slot]: 0 votes for a, 1 votes for b.
func votePlan(t *testing.T, nClasses int, winner func(a, b int) int) *PairwiseVoter {
	t.Helper()
	v, err := NewPairwiseVoter(nClasses)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.NumPairs(); i++ {
		a, b := v.Pair(i)
		if err := v.SetPairClassifier(i, fixedClassifier{out: winner(a, b)}); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func emptyPairFeatures(v *PairwiseVoter) [][]float64 {
	fs := make([][]float64, v.NumPairs())
	for i := range fs {
		fs[i] = []float64{0}
	}
	return fs
}

// TestVoterTieBreaksTowardLowestLabel constructs an exact vote tie and pins
// the documented resolution: the lowest label wins.
func TestVoterTieBreaksTowardLowestLabel(t *testing.T) {
	// Vote tallies: pairs (0,1)→0, (0,2)→2, (0,3)→0, (1,2)→1, (1,3)→1,
	// (2,3)→2 give classes 0, 1, 2 two votes each and class 3 none — a
	// three-way tie that must resolve to the lowest label.
	v := votePlan(t, 4, func(a, b int) int {
		type pair struct{ a, b int }
		winners := map[pair]int{
			{0, 1}: 0, {0, 2}: 1, {0, 3}: 0,
			{1, 2}: 0, {1, 3}: 0, {2, 3}: 0,
		}
		return winners[pair{a, b}]
	})
	got, err := v.Vote(emptyPairFeatures(v))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("three-way tie resolved to %d, want lowest label 0", got)
	}
}

// TestVoterUnanimousWinner sanity-checks the no-tie path for every possible
// winner, including the highest label.
func TestVoterUnanimousWinner(t *testing.T) {
	for want := 0; want < 4; want++ {
		v := votePlan(t, 4, func(a, b int) int {
			if a == want {
				return 0
			}
			if b == want {
				return 1
			}
			return 0
		})
		got, err := v.Vote(emptyPairFeatures(v))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("unanimous winner %d, Vote returned %d", want, got)
		}
	}
}

// TestVoterAbsentClassStillEnumerated pins that every pair slot exists even
// for classes that never win (an "absent" class in the training sense): the
// canonical enumeration is (0,1),(0,2),…,(K−2,K−1) and a class with zero
// votes is still a valid, losing participant.
func TestVoterAbsentClassStillEnumerated(t *testing.T) {
	const k = 5
	v, err := NewPairwiseVoter(k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.NumPairs(), k*(k-1)/2; got != want {
		t.Fatalf("NumPairs = %d, want %d", got, want)
	}
	seen := map[[2]int]bool{}
	prev := [2]int{-1, -1}
	for i := 0; i < v.NumPairs(); i++ {
		a, b := v.Pair(i)
		if a >= b || a < 0 || b >= k {
			t.Fatalf("pair %d = (%d,%d) out of canonical order", i, a, b)
		}
		cur := [2]int{a, b}
		if seen[cur] {
			t.Fatalf("pair (%d,%d) enumerated twice", a, b)
		}
		if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] <= prev[1]) {
			t.Fatalf("pair %d = (%d,%d) not in lexicographic order after (%d,%d)", i, a, b, prev[0], prev[1])
		}
		seen[cur] = true
		prev = cur
	}
	// Class 4 loses every pair; class 2 wins every pair it appears in.
	v2 := votePlan(t, k, func(a, b int) int {
		if a == 2 {
			return 0
		}
		if b == 2 {
			return 1
		}
		return 0
	})
	got, err := v2.Vote(emptyPairFeatures(v2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("winner with absent class = %d, want 2", got)
	}
}

// TestVoterErrorPaths covers slot-range validation and pair-classifier
// error propagation.
func TestVoterErrorPaths(t *testing.T) {
	v, err := NewPairwiseVoter(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.SetPairClassifier(-1, fixedClassifier{}); err == nil {
		t.Fatal("SetPairClassifier(-1) accepted")
	}
	if err := v.SetPairClassifier(v.NumPairs(), fixedClassifier{}); err == nil {
		t.Fatalf("SetPairClassifier(%d) accepted", v.NumPairs())
	}
	for i := 0; i < v.NumPairs(); i++ {
		clf := Classifier(fixedClassifier{})
		if i == 1 {
			clf = errClassifier{}
		}
		if err := v.SetPairClassifier(i, clf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Vote(emptyPairFeatures(v)); err == nil {
		t.Fatal("Vote swallowed a pair-classifier error")
	}
}

// The voter accessors and scored vote below serve these tests only.

// NumPairs returns K(K−1)/2.
func (v *PairwiseVoter) NumPairs() int { return len(v.pairs) }

// Pair returns the class labels of pair slot i.
func (v *PairwiseVoter) Pair(i int) (a, b int) { return v.pairs[i][0], v.pairs[i][1] }

// VoteScored is Vote annotated with the vote-tally confidence: the winning
// class's share of the K(K−1)/2 pairwise votes.
func (v *PairwiseVoter) VoteScored(pairFeatures [][]float64) (ScoredPrediction, error) {
	votes, err := v.voteTally(pairFeatures)
	if err != nil {
		return ScoredPrediction{}, err
	}
	return scoredFromWeights(votes, make([]float64, len(votes))), nil
}
