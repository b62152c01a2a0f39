package ml

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// LDA is linear discriminant analysis: Gaussian classes with a shared
// (pooled) covariance, yielding linear decision boundaries. Matches MATLAB's
// fitcdiscr(..., 'DiscrimType', 'linear') used in the paper.
type LDA struct {
	means  [][]float64
	chol   *linalg.Cholesky
	priors []float64
	// cached Σ⁻¹μc and constants for the linear discriminant
	wc []([]float64)
	bc []float64
	nc int
	p  int
}

// NewLDA returns an untrained LDA classifier.
func NewLDA() *LDA { return &LDA{} }

// Name implements Classifier.
func (l *LDA) Name() string { return "LDA" }

// Fit implements Classifier.
func (l *LDA) Fit(X [][]float64, y []int) error {
	defer ldaMet().timeFit()()
	nc, p, err := validateTraining(X, y)
	if err != nil {
		return err
	}
	byClass := splitByClass(y, nc)
	pooled := linalg.NewMatrix(p, p)
	means := make([][]float64, nc)
	priors := make([]float64, nc)
	for c, idx := range byClass {
		if len(idx) < 2 {
			return errorsClassTooSmall(c, len(idx))
		}
		Xc := linalg.NewMatrix(len(idx), p)
		for i, j := range idx {
			copy(Xc.Row(i), X[j])
		}
		mu := linalg.Mean(Xc)
		cov, err := linalg.Covariance(Xc, mu)
		if err != nil {
			return err
		}
		cov.Scale(float64(len(idx) - 1))
		if err := pooled.Add(cov); err != nil {
			return err
		}
		means[c] = mu
		priors[c] = float64(len(idx)) / float64(len(X))
	}
	pooled.Scale(1 / float64(len(X)-nc))
	ch, _, err := linalg.RegularizedCholesky(pooled, 1e-9)
	if err != nil {
		return err
	}
	l.means, l.chol, l.priors, l.nc, l.p = means, ch, priors, nc, p
	l.wc = make([][]float64, nc)
	l.bc = make([]float64, nc)
	for c := 0; c < nc; c++ {
		w, err := ch.SolveVec(means[c])
		if err != nil {
			return err
		}
		l.wc[c] = w
		l.bc[c] = -0.5*linalg.Dot(means[c], w) + math.Log(priors[c])
	}
	return nil
}

// Scores returns the per-class linear discriminant values.
func (l *LDA) Scores(x []float64) ([]float64, error) {
	return l.ScoresScratch(x, &Scratch{})
}

// ScoresScratch implements ScratchScorer.
func (l *LDA) ScoresScratch(x []float64, s *Scratch) ([]float64, error) {
	if l.chol == nil {
		return nil, errors.New("ml: LDA used before Fit")
	}
	if len(x) != l.p {
		return nil, errDim(len(x), l.p)
	}
	out := take(&s.scores, l.nc)
	for c := 0; c < l.nc; c++ {
		out[c] = linalg.Dot(l.wc[c], x) + l.bc[c]
	}
	return out, nil
}

func (l *LDA) reserve(s *Scratch) { s.reserve(l.nc, l.p) }

// Predict implements Classifier.
func (l *LDA) Predict(x []float64) (int, error) {
	ldaMet().predicts.Inc()
	s, err := l.Scores(x)
	if err != nil {
		return 0, err
	}
	return argmax(s), nil
}

// PredictScored implements ScoredClassifier. The linear discriminant values
// are class log posteriors up to a shared constant, so their softmax is the
// posterior distribution.
func (l *LDA) PredictScored(x []float64) (ScoredPrediction, error) {
	return l.PredictScoredScratch(x, &Scratch{})
}

// PredictScoredScratch implements ScratchClassifier.
func (l *LDA) PredictScoredScratch(x []float64, s *Scratch) (ScoredPrediction, error) {
	ldaMet().predicts.Inc()
	sc, err := l.ScoresScratch(x, s)
	if err != nil {
		return ScoredPrediction{}, err
	}
	return scoredFromLogScores(sc, take(&s.post, len(sc))), nil
}

// QDA is quadratic discriminant analysis: Gaussian classes with their own
// covariance matrices. This is the classifier that achieves the paper's
// headline 99.03 % instruction+register recognition.
type QDA struct {
	means     [][]float64
	chols     []*linalg.Cholesky
	logDets   []float64
	priors    []float64
	logPriors []float64 // math.Log(priors[c]), computed once
	nc, p     int
}

// NewQDA returns an untrained QDA classifier.
func NewQDA() *QDA { return &QDA{} }

// Name implements Classifier.
func (q *QDA) Name() string { return "QDA" }

// Fit implements Classifier.
func (q *QDA) Fit(X [][]float64, y []int) error {
	defer qdaMet().timeFit()()
	nc, p, err := validateTraining(X, y)
	if err != nil {
		return err
	}
	byClass := splitByClass(y, nc)
	q.means = make([][]float64, nc)
	q.chols = make([]*linalg.Cholesky, nc)
	q.logDets = make([]float64, nc)
	q.priors = make([]float64, nc)
	for c, idx := range byClass {
		if len(idx) < 2 {
			return errorsClassTooSmall(c, len(idx))
		}
		Xc := linalg.NewMatrix(len(idx), p)
		for i, j := range idx {
			copy(Xc.Row(i), X[j])
		}
		mu := linalg.Mean(Xc)
		cov, err := linalg.Covariance(Xc, mu)
		if err != nil {
			return err
		}
		ch, _, err := linalg.RegularizedCholesky(cov, 1e-9)
		if err != nil {
			return err
		}
		q.means[c] = mu
		q.chols[c] = ch
		q.logDets[c] = ch.LogDet()
		q.priors[c] = float64(len(idx)) / float64(len(X))
	}
	q.nc, q.p = nc, p
	q.logPriors = logs(q.priors)
	return nil
}

// logs returns math.Log of every value.
func logs(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Log(x)
	}
	return out
}

// Scores returns the per-class quadratic discriminant values (log posterior
// up to a constant).
func (q *QDA) Scores(x []float64) ([]float64, error) {
	return q.ScoresScratch(x, &Scratch{})
}

// ScoresScratch implements ScratchScorer. The Mahalanobis solves run four
// classes per pass (linalg.MahalanobisSq4) in the scratch's solve vectors,
// and leftover classes one at a time; every score is bitwise the per-class
// MahalanobisSqWith loop's.
func (q *QDA) ScoresScratch(x []float64, s *Scratch) ([]float64, error) {
	if len(q.chols) == 0 {
		return nil, errors.New("ml: QDA used before Fit")
	}
	if len(x) != q.p {
		return nil, errDim(len(x), q.p)
	}
	out := take(&s.scores, q.nc)
	y := take(&s.solve, 4*q.p)
	c := 0
	for ; c+4 <= q.nc; c += 4 {
		var m [4]float64
		if err := linalg.MahalanobisSq4(&m, y, x, (*[4]*linalg.Cholesky)(q.chols[c:c+4]), (*[4][]float64)(q.means[c:c+4])); err != nil {
			return nil, err
		}
		for k, mk := range m {
			out[c+k] = -0.5*q.logDets[c+k] - 0.5*mk + q.logPriors[c+k]
		}
	}
	for ; c < q.nc; c++ {
		m, err := q.chols[c].MahalanobisSqWith(y[:q.p], x, q.means[c])
		if err != nil {
			return nil, err
		}
		out[c] = -0.5*q.logDets[c] - 0.5*m + q.logPriors[c]
	}
	return out, nil
}

func (q *QDA) reserve(s *Scratch) { s.reserve(q.nc, 4*q.p) }

// Predict implements Classifier.
func (q *QDA) Predict(x []float64) (int, error) {
	qdaMet().predicts.Inc()
	s, err := q.Scores(x)
	if err != nil {
		return 0, err
	}
	return argmax(s), nil
}

// PredictScored implements ScoredClassifier (softmax of the quadratic
// discriminant values — the class posteriors).
func (q *QDA) PredictScored(x []float64) (ScoredPrediction, error) {
	return q.PredictScoredScratch(x, &Scratch{})
}

// PredictScoredScratch implements ScratchClassifier.
func (q *QDA) PredictScoredScratch(x []float64, s *Scratch) (ScoredPrediction, error) {
	qdaMet().predicts.Inc()
	sc, err := q.ScoresScratch(x, s)
	if err != nil {
		return ScoredPrediction{}, err
	}
	return scoredFromLogScores(sc, take(&s.post, len(sc))), nil
}

func argmax(s []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range s {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func errDim(got, want int) error {
	return fmt.Errorf("ml: feature dimension mismatch: got %d, want %d", got, want)
}

func errorsClassTooSmall(c, n int) error {
	return fmt.Errorf("ml: class %d has only %d samples; need >= 2", c, n)
}
