package ml

import (
	"errors"
	"fmt"
)

// PairwiseVoter implements the paper's majority voting method (Section 5.4):
// one binary classifier per class pair, each operating on its own
// pair-specific feature vector x_{i,j} (selected from that pair's DNVP), with
// the final class chosen by vote count. Because feature extraction differs
// per pair, the voter holds externally trained binary classifiers rather
// than fitting itself.
type PairwiseVoter struct {
	nClasses    int
	pairs       [][2]int
	classifiers []Classifier
}

// NewPairwiseVoter prepares a voter over nClasses classes with the canonical
// pair enumeration (0,1), (0,2) … (K−2,K−1) — K(K−1)/2 slots.
func NewPairwiseVoter(nClasses int) (*PairwiseVoter, error) {
	if nClasses < 2 {
		return nil, fmt.Errorf("ml: voter needs >= 2 classes, got %d", nClasses)
	}
	v := &PairwiseVoter{nClasses: nClasses}
	for a := 0; a < nClasses; a++ {
		for b := a + 1; b < nClasses; b++ {
			v.pairs = append(v.pairs, [2]int{a, b})
		}
	}
	v.classifiers = make([]Classifier, len(v.pairs))
	return v, nil
}

// SetPairClassifier installs the trained binary classifier for slot i. The
// classifier must emit label 0 for the pair's first class and 1 for its
// second.
func (v *PairwiseVoter) SetPairClassifier(i int, clf Classifier) error {
	if i < 0 || i >= len(v.pairs) {
		return fmt.Errorf("ml: pair slot %d out of range [0,%d)", i, len(v.pairs))
	}
	v.classifiers[i] = clf
	return nil
}

// voteTally runs every pair classifier and returns the per-class vote counts.
func (v *PairwiseVoter) voteTally(pairFeatures [][]float64) ([]float64, error) {
	if len(pairFeatures) != len(v.pairs) {
		return nil, fmt.Errorf("ml: voter got %d pair vectors, want %d", len(pairFeatures), len(v.pairs))
	}
	votes := make([]float64, v.nClasses)
	for i, clf := range v.classifiers {
		if clf == nil {
			return nil, errors.New("ml: voter has untrained pair slots")
		}
		p, err := clf.Predict(pairFeatures[i])
		if err != nil {
			return nil, err
		}
		switch p {
		case 0:
			votes[v.pairs[i][0]]++
		case 1:
			votes[v.pairs[i][1]]++
		default:
			return nil, fmt.Errorf("ml: pair classifier %d returned non-binary label %d", i, p)
		}
	}
	return votes, nil
}

// Vote classifies from per-pair feature vectors: pairFeatures[i] is the
// feature vector for pair slot i. Ties are broken toward the lowest label.
func (v *PairwiseVoter) Vote(pairFeatures [][]float64) (int, error) {
	votes, err := v.voteTally(pairFeatures)
	if err != nil {
		return 0, err
	}
	return argmax(votes), nil
}
