// Package ml implements the classifiers the paper evaluates — linear and
// quadratic discriminant analysis, Gaussian naïve Bayes, an SMO-trained SVM
// with RBF kernel (grid-searched with k-fold cross-validation), and kNN as
// the prior-work baseline — plus one-vs-one majority voting and evaluation
// metrics. Everything is stdlib-only.
package ml

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Classifier is the common supervised-classification interface. Labels are
// dense integers 0..K-1.
type Classifier interface {
	// Fit trains on rows X with labels y.
	Fit(X [][]float64, y []int) error
	// Predict returns the label for one feature vector.
	Predict(x []float64) (int, error)
	// Name identifies the algorithm for reports.
	Name() string
}

// validateTraining checks the common preconditions and returns the class
// count (max label + 1).
func validateTraining(X [][]float64, y []int) (nClasses, dim int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, 0, fmt.Errorf("ml: need equal non-zero samples/labels, got %d/%d", len(X), len(y))
	}
	dim = len(X[0])
	if dim == 0 {
		return 0, 0, errors.New("ml: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != dim {
			return 0, 0, fmt.Errorf("ml: row %d has dim %d, want %d", i, len(row), dim)
		}
		if !stats.AllFinite(row) {
			return 0, 0, fmt.Errorf("ml: training row %d: %w: non-finite feature", i, stats.ErrDegenerate)
		}
		if y[i] < 0 {
			return 0, 0, fmt.Errorf("ml: negative label %d", y[i])
		}
		if y[i]+1 > nClasses {
			nClasses = y[i] + 1
		}
	}
	if nClasses < 2 {
		return 0, 0, errors.New("ml: need at least 2 classes")
	}
	return nClasses, dim, nil
}

// splitByClass groups row indices by label.
func splitByClass(y []int, nClasses int) [][]int {
	out := make([][]int, nClasses)
	for i, l := range y {
		out[l] = append(out[l], i)
	}
	return out
}

// EvaluateAccuracy fits nothing; it runs clf over X and compares to y.
func EvaluateAccuracy(clf Classifier, X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(X) == 0 {
		return 0, errors.New("ml: evaluate needs equal non-zero samples/labels")
	}
	hit := 0
	for i, x := range X {
		p, err := clf.Predict(x)
		if err != nil {
			return 0, err
		}
		if p == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X)), nil
}

// ConfusionMatrix counts cm[true][predicted].
func ConfusionMatrix(clf Classifier, X [][]float64, y []int, nClasses int) ([][]int, error) {
	if nClasses < 2 {
		return nil, errors.New("ml: confusion matrix needs >= 2 classes")
	}
	cm := make([][]int, nClasses)
	for i := range cm {
		cm[i] = make([]int, nClasses)
	}
	for i, x := range X {
		p, err := clf.Predict(x)
		if err != nil {
			return nil, err
		}
		if y[i] >= nClasses || p >= nClasses || p < 0 {
			return nil, fmt.Errorf("ml: label/prediction out of range (%d/%d)", y[i], p)
		}
		cm[y[i]][p]++
	}
	return cm, nil
}
