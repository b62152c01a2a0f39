package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// gaussianBlobs builds an easily separable K-class dataset with Gaussian
// clusters in dim dimensions.
func gaussianBlobs(rng *rand.Rand, k, perClass, dim int, sep, spread float64) (X [][]float64, y []int) {
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = sep * float64(c) * math.Cos(float64(c+j))
		}
		center[c%dim] += sep
		for i := 0; i < perClass; i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = center[j] + rng.NormFloat64()*spread
			}
			X = append(X, x)
			y = append(y, c)
		}
	}
	return
}

func allClassifiers() []Classifier {
	return []Classifier{
		NewLDA(),
		NewQDA(),
		NewGaussianNB(),
		NewKNN(3),
		NewSVM(10, RBFKernel{Gamma: 0.5}),
		NewSVM(10, LinearKernel{}),
	}
}

func TestAllClassifiersSeparateBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := gaussianBlobs(rng, 3, 60, 4, 5, 0.4)
	Xt, yt := gaussianBlobs(rng, 3, 30, 4, 5, 0.4)
	for _, clf := range allClassifiers() {
		if err := clf.Fit(X, y); err != nil {
			t.Fatalf("%s: fit: %v", clf.Name(), err)
		}
		acc, err := EvaluateAccuracy(clf, Xt, yt)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", clf.Name(), err)
		}
		if acc < 0.95 {
			t.Fatalf("%s: accuracy %g on trivially separable blobs", clf.Name(), acc)
		}
	}
}

func TestClassifiersRejectBadInput(t *testing.T) {
	for _, clf := range allClassifiers() {
		if err := clf.Fit(nil, nil); err == nil {
			t.Fatalf("%s: empty fit should fail", clf.Name())
		}
		if err := clf.Fit([][]float64{{1, 2}}, []int{0}); err == nil {
			t.Fatalf("%s: single-class fit should fail", clf.Name())
		}
		if err := clf.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}); err == nil {
			t.Fatalf("%s: ragged fit should fail", clf.Name())
		}
		if _, err := clf.Predict([]float64{1}); err == nil {
			t.Fatalf("%s: predict before fit should fail", clf.Name())
		}
	}
}

func TestClassifiersPredictDimCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := gaussianBlobs(rng, 2, 20, 3, 4, 0.3)
	for _, clf := range allClassifiers() {
		if err := clf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if _, err := clf.Predict([]float64{1}); err == nil {
			t.Fatalf("%s: wrong-dimension predict should fail", clf.Name())
		}
	}
}

func TestQDAHandlesUnequalCovariances(t *testing.T) {
	// Class 0: tight blob at origin; class 1: ring-like wide blob around it.
	// LDA (shared covariance) fails here; QDA must exceed it.
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		X = append(X, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		y = append(y, 0)
		X = append(X, []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4})
		y = append(y, 1)
	}
	lda, qda := NewLDA(), NewQDA()
	if err := lda.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := qda.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var Xt [][]float64
	var yt []int
	for i := 0; i < 200; i++ {
		Xt = append(Xt, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		yt = append(yt, 0)
		Xt = append(Xt, []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4})
		yt = append(yt, 1)
	}
	accL, _ := EvaluateAccuracy(lda, Xt, yt)
	accQ, _ := EvaluateAccuracy(qda, Xt, yt)
	if accQ <= accL {
		t.Fatalf("QDA (%g) should beat LDA (%g) on unequal covariances", accQ, accL)
	}
	if accQ < 0.85 {
		t.Fatalf("QDA accuracy %g too low", accQ)
	}
}

func TestLDAScoresLinear(t *testing.T) {
	// LDA discriminants are affine: score(αx) scales consistently.
	rng := rand.New(rand.NewSource(4))
	X, y := gaussianBlobs(rng, 2, 50, 2, 6, 0.5)
	lda := NewLDA()
	if err := lda.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	s1, err := lda.Scores([]float64{1, 1})
	if err != nil || len(s1) != 2 {
		t.Fatalf("scores: %v %v", s1, err)
	}
	if _, err := lda.Scores([]float64{1}); err == nil {
		t.Fatal("want dim error")
	}
}

func TestKNNExactMemorization(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {10, 10}, {11, 11}}
	y := []int{0, 0, 1, 1}
	knn := NewKNN(1)
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		p, err := knn.Predict(x)
		if err != nil || p != y[i] {
			t.Fatalf("1-NN must memorize: pred %d want %d (%v)", p, y[i], err)
		}
	}
	p, _ := knn.Predict([]float64{6.5, 6.5})
	if p != 1 {
		t.Fatalf("nearest neighbor of (6.5,6.5) is (10,10), class 1; pred=%d", p)
	}
	if err := NewKNN(0).Fit(X, y); err == nil {
		t.Fatal("k=0 should fail")
	}
	if err := NewKNN(9).Fit(X, y); err == nil {
		t.Fatal("k > n should fail")
	}
}

func TestGaussianNBIndependentDims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		X = append(X, []float64{rng.NormFloat64()*0.5 - 3, rng.NormFloat64()})
		y = append(y, 0)
		X = append(X, []float64{rng.NormFloat64()*0.5 + 3, rng.NormFloat64()})
		y = append(y, 1)
	}
	nb := NewGaussianNB()
	if err := nb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	lp, err := nb.LogPosteriors([]float64{-3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if lp[0] <= lp[1] {
		t.Fatalf("log posterior should favor class 0 at its mean: %v", lp)
	}
	acc, _ := EvaluateAccuracy(nb, X, y)
	if acc < 0.99 {
		t.Fatalf("NB accuracy %g", acc)
	}
}

func TestSVMMarginAndSupportVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := gaussianBlobs(rng, 2, 80, 2, 8, 0.5)
	svm := NewSVM(1, LinearKernel{})
	if err := svm.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if svm.NumSupportVectors() == 0 {
		t.Fatal("no support vectors retained")
	}
	if svm.NumSupportVectors() >= len(X) {
		t.Fatalf("all %d points became SVs on separable data", svm.NumSupportVectors())
	}
	acc, _ := EvaluateAccuracy(svm, X, y)
	if acc < 0.98 {
		t.Fatalf("separable linear SVM accuracy %g", acc)
	}
}

func TestSVMNonlinearNeedsRBF(t *testing.T) {
	// XOR-style data: linear kernel fails, RBF succeeds.
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		lbl := 0
		if (a > 0) != (b > 0) {
			lbl = 1
		}
		X = append(X, []float64{a * 3, b * 3})
		y = append(y, lbl)
	}
	lin := NewSVM(10, LinearKernel{})
	rbf := NewSVM(10, RBFKernel{Gamma: 1})
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := rbf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	accLin, _ := EvaluateAccuracy(lin, X, y)
	accRBF, _ := EvaluateAccuracy(rbf, X, y)
	if accRBF < 0.9 {
		t.Fatalf("RBF SVM should solve XOR, got %g", accRBF)
	}
	if accRBF <= accLin {
		t.Fatalf("RBF (%g) should beat linear (%g) on XOR", accRBF, accLin)
	}
}

func TestSVMValidation(t *testing.T) {
	X := [][]float64{{0}, {1}}
	y := []int{0, 1}
	if err := NewSVM(-1, LinearKernel{}).Fit(X, y); err == nil {
		t.Fatal("C<=0 should fail")
	}
	s := &SVM{C: 1}
	if err := s.Fit(X, y); err == nil {
		t.Fatal("nil kernel should fail")
	}
}

func TestConfusionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := gaussianBlobs(rng, 3, 30, 3, 7, 0.3)
	lda := NewLDA()
	if err := lda.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	cm, err := ConfusionMatrix(lda, X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	diag := 0
	for i := range cm {
		for j := range cm[i] {
			total += cm[i][j]
			if i == j {
				diag += cm[i][j]
			}
		}
	}
	if total != len(X) {
		t.Fatalf("confusion total %d, want %d", total, len(X))
	}
	if float64(diag)/float64(total) < 0.95 {
		t.Fatalf("diagonal fraction %g", float64(diag)/float64(total))
	}
}

func TestPairwiseVoter(t *testing.T) {
	v, err := NewPairwiseVoter(3)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumPairs() != 3 {
		t.Fatalf("pairs = %d, want 3", v.NumPairs())
	}
	// Train binary classifiers on separable 1-D pair features: pair (a,b)
	// features are negative for class a, positive for class b.
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
	// A sample of class 1: pair (0,1) → second (positive), pair (0,2) →
	// don't care (say first), pair (1,2) → first (negative).
	got, err := v.Vote([][]float64{{+1}, {-1}, {-1}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("vote = %d, want 1", got)
	}
	if _, err := v.Vote([][]float64{{1}}); err == nil {
		t.Fatal("wrong pair count should fail")
	}
	if err := v.SetPairClassifier(99, NewLDA()); err == nil {
		t.Fatal("out-of-range slot should fail")
	}
	if _, err := NewPairwiseVoter(1); err == nil {
		t.Fatal("voter needs >= 2 classes")
	}
}

func TestVoterRejectsUntrainedSlots(t *testing.T) {
	v, _ := NewPairwiseVoter(2)
	if _, err := v.Vote([][]float64{{1}}); err == nil {
		t.Fatal("vote with empty slot should fail")
	}
}

func TestEvaluateAccuracyValidation(t *testing.T) {
	if _, err := EvaluateAccuracy(NewLDA(), nil, nil); err == nil {
		t.Fatal("want error for empty eval")
	}
}

func TestClassifierDeterminismProperty(t *testing.T) {
	// Same data, same seed → identical predictions for every classifier.
	f := func(seed int64) bool {
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		X1, y1 := gaussianBlobs(rng1, 2, 25, 3, 5, 0.5)
		X2, y2 := gaussianBlobs(rng2, 2, 25, 3, 5, 0.5)
		a := NewSVM(10, RBFKernel{Gamma: 0.3})
		b := NewSVM(10, RBFKernel{Gamma: 0.3})
		if a.Fit(X1, y1) != nil || b.Fit(X2, y2) != nil {
			return false
		}
		probe := []float64{1, 2, 3}
		pa, ea := a.Predict(probe)
		pb, eb := b.Predict(probe)
		return ea == nil && eb == nil && pa == pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestFitRejectsNonFiniteTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := gaussianBlobs(rng, 2, 20, 3, 6, 0.5)
	X[7][1] = math.NaN()
	for _, clf := range []Classifier{NewLDA(), NewQDA(), NewGaussianNB(), NewKNN(3), NewSVM(1, LinearKernel{})} {
		if err := clf.Fit(X, y); !errors.Is(err, stats.ErrDegenerate) {
			t.Fatalf("%s.Fit with NaN err = %v, want stats.ErrDegenerate", clf.Name(), err)
		}
	}
}

// NumSupportVectors returns the total SV count across pair machines. Only
// the margin test asks.
func (s *SVM) NumSupportVectors() int {
	n := 0
	for _, m := range s.machines {
		n += len(m.sv)
	}
	return n
}

// parentQDAScores is QDA's scoring loop as it was before the four-class
// solve: one MahalanobisSqWith per class and the log prior taken per class.
func parentQDAScores(q *QDA, x []float64) ([]float64, error) {
	out := make([]float64, q.nc)
	y := make([]float64, q.p)
	for c := 0; c < q.nc; c++ {
		m, err := q.chols[c].MahalanobisSqWith(y, x, q.means[c])
		if err != nil {
			return nil, err
		}
		out[c] = -0.5*q.logDets[c] - 0.5*m + math.Log(q.priors[c])
	}
	return out, nil
}

// TestQDAScoresMatchPerClassLoop pins the four-class solve bitwise against
// the per-class loop it replaced, for class counts on and off multiples of
// four, through one reused Scratch, on restored and freshly fitted models.
func TestQDAScoresMatchPerClassLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := &Scratch{}
	check := func(name string, q *QDA) {
		t.Helper()
		for trial := 0; trial < 3; trial++ {
			x := make([]float64, q.p)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want, err := parentQDAScores(q, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.ScoresScratch(x, s)
			if err != nil {
				t.Fatal(err)
			}
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s: class %d score %v, per-class loop %v", name, c, got[c], want[c])
				}
			}
		}
	}
	for _, sh := range [][2]int{{2, 1}, {3, 40}, {4, 7}, {5, 1}, {6, 315}, {7, 64}, {9, 300}, {11, 13}} {
		nc, p := sh[0], sh[1]
		st := &QDAState{}
		for c := 0; c < nc; c++ {
			L := linalg.NewMatrix(p, p)
			for i := 0; i < p; i++ {
				for k := 0; k < i; k++ {
					L.Set(i, k, rng.NormFloat64()/math.Sqrt(float64(p)))
				}
				L.Set(i, i, 0.5+rng.Float64())
			}
			mu := make([]float64, p)
			for i := range mu {
				mu[i] = rng.NormFloat64()
			}
			st.Means = append(st.Means, mu)
			st.Factors = append(st.Factors, L)
			st.Priors = append(st.Priors, (1+rng.Float64())/float64(2*nc))
		}
		q, err := QDAFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("restored %d classes × %d", nc, p), q)
	}
	// A fitted model: 6 classes of 5-dimensional Gaussians.
	var X [][]float64
	var y []int
	for c := 0; c < 6; c++ {
		for i := 0; i < 30; i++ {
			row := make([]float64, 5)
			for j := range row {
				row[j] = float64(c) + rng.NormFloat64()*(1+float64(j%3))
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	q := NewQDA()
	if err := q.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	check("fitted 6 classes × 5", q)
}
