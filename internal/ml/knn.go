package ml

import (
	"errors"
	"fmt"
	"sort"
)

// KNN is the k-nearest-neighbors classifier (Euclidean metric), the
// classifier of Msgna et al. that the paper compares against (k = 1 with
// PCA features).
type KNN struct {
	K  int
	X  [][]float64
	y  []int
	p  int
	nc int
}

// NewKNN returns a k-nearest-neighbors classifier.
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Name implements Classifier.
func (k *KNN) Name() string { return fmt.Sprintf("%d-NN", k.K) }

// Fit implements Classifier (memorizes the training set).
func (k *KNN) Fit(X [][]float64, y []int) error {
	defer knnMet().timeFit()()
	if k.K < 1 {
		return fmt.Errorf("ml: kNN needs k >= 1, got %d", k.K)
	}
	nc, p, err := validateTraining(X, y)
	if err != nil {
		return err
	}
	if len(X) < k.K {
		return fmt.Errorf("ml: kNN with k=%d needs at least k samples, got %d", k.K, len(X))
	}
	k.X = X
	k.y = y
	k.p = p
	k.nc = nc
	return nil
}

// neighbour is one training sample's squared distance to the query.
type neighbour struct {
	d float64
	y int
}

// neighbours sorts by distance through a pointer, so sorting the scratch's
// list converts no slice header to an interface (no allocation). It runs
// the same pdqsort as sort.Slice, so ties order the same way.
type neighbours []neighbour

func (n *neighbours) Len() int           { return len(*n) }
func (n *neighbours) Less(a, b int) bool { return (*n)[a].d < (*n)[b].d }
func (n *neighbours) Swap(a, b int)      { (*n)[a], (*n)[b] = (*n)[b], (*n)[a] }

// classVotes returns the per-class vote counts among the K nearest training
// samples of x, written into s.
func (k *KNN) classVotes(x []float64, s *Scratch) ([]float64, error) {
	if k.X == nil {
		return nil, errors.New("ml: kNN used before Fit")
	}
	if len(x) != k.p {
		return nil, errDim(len(x), k.p)
	}
	nbs := take(&s.nbs, len(k.X))
	for i, row := range k.X {
		var d float64
		for j := range row {
			diff := row[j] - x[j]
			d += diff * diff
		}
		nbs[i] = neighbour{d: d, y: k.y[i]}
	}
	sort.Sort(&s.nbs)
	votes := take(&s.scores, k.nc)
	clear(votes)
	for i := 0; i < k.K; i++ {
		votes[nbs[i].y]++
	}
	return votes, nil
}

func (k *KNN) reserve(s *Scratch) {
	s.reserve(k.nc, k.p)
	take(&s.nbs, len(k.X))
}

// Predict implements Classifier.
func (k *KNN) Predict(x []float64) (int, error) {
	knnMet().predicts.Inc()
	votes, err := k.classVotes(x, &Scratch{})
	if err != nil {
		return 0, err
	}
	return argmax(votes), nil
}

// PredictScored implements ScoredClassifier: the confidence is the neighbor
// vote fraction (votes for the winning class over k).
func (k *KNN) PredictScored(x []float64) (ScoredPrediction, error) {
	return k.PredictScoredScratch(x, &Scratch{})
}

// PredictScoredScratch implements ScratchClassifier.
func (k *KNN) PredictScoredScratch(x []float64, s *Scratch) (ScoredPrediction, error) {
	knnMet().predicts.Inc()
	votes, err := k.classVotes(x, s)
	if err != nil {
		return ScoredPrediction{}, err
	}
	return scoredFromWeights(votes, take(&s.post, len(votes))), nil
}
