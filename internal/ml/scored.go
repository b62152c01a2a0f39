package ml

import (
	"math"
)

// ScoredPrediction is a classification decision annotated with its own
// quality: how confident the classifier is in the winning label and how far
// the runner-up trailed. It is the per-decision record the inference-quality
// observability layer (decision logs, calibration tracking) is built on.
type ScoredPrediction struct {
	// Label is the winning class — always identical to what Predict returns
	// on the same input.
	Label int
	// RunnerUp is the second-best class (the strongest competitor).
	RunnerUp int
	// Confidence is the winning class's normalized score in [0, 1]: a
	// posterior probability for the Gaussian classifiers, a vote fraction
	// for the voting classifiers.
	Confidence float64
	// Margin is Confidence minus the runner-up's normalized score — 0 for a
	// coin-flip decision, approaching 1 for an unambiguous one.
	Margin float64
	// Posteriors holds every class's normalized score; entries are finite,
	// lie in [0, 1] and sum to 1 (up to rounding). From a Scratch-based
	// call it aliases the Scratch.
	Posteriors []float64
}

// ScoredClassifier is implemented by classifiers that can report decision
// confidence alongside the label. All classifiers in this package implement
// it; the interface exists so callers can feature-test restored or externally
// supplied Classifier values.
type ScoredClassifier interface {
	Classifier
	// PredictScored returns the same label Predict would, annotated with
	// normalized per-class confidence.
	PredictScored(x []float64) (ScoredPrediction, error)
}

// Scorer is implemented by classifiers that expose their raw per-class
// decision scores (log posteriors up to a shared constant for the Gaussian
// families). Predict is the argmax of these scores, so callers can restrict
// a decision to a subset of classes by masking entries to -Inf and
// re-normalizing with Scratch.ScoredFromLogScores.
type Scorer interface {
	Scores(x []float64) ([]float64, error)
}

// scoredFromLogScores normalizes per-class scores that live in log space
// (discriminant values, log posteriors) with a max-shifted softmax into
// post (len(scores) values). The winner is the score argmax — the same
// index Predict's argmax picks — so label agreement is structural, not
// numerical.
func scoredFromLogScores(scores, post []float64) ScoredPrediction {
	best := argmax(scores)
	var sum float64
	for i, s := range scores {
		// exp(s - max) is in (0, 1]; -Inf scores (impossible classes) give 0.
		post[i] = math.Exp(s - scores[best])
		sum += post[i]
	}
	for i := range post {
		post[i] /= sum
	}
	return scoredFromPosteriors(post, best)
}

// scoredFromWeights normalizes non-negative per-class weights (vote counts,
// optionally with a fractional tie-break component) by their sum into post
// (len(weights) values). The winner is the weight argmax.
func scoredFromWeights(weights, post []float64) ScoredPrediction {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		// Degenerate (all-zero weights): uniform posteriors.
		for i := range post {
			post[i] = 1 / float64(len(post))
		}
		return scoredFromPosteriors(post, 0)
	}
	for i, w := range weights {
		post[i] = w / sum
	}
	return scoredFromPosteriors(post, argmax(weights))
}

// scoredFromPosteriors assembles the prediction from already-normalized
// posteriors and the decided winner. The runner-up is the strongest class
// other than the winner (ties resolve to the lowest label, matching every
// Predict tie-break in this package).
func scoredFromPosteriors(post []float64, best int) ScoredPrediction {
	ru := -1
	for i, p := range post {
		if i == best {
			continue
		}
		if ru < 0 || p > post[ru] {
			ru = i
		}
	}
	sp := ScoredPrediction{
		Label:      best,
		RunnerUp:   ru,
		Confidence: post[best],
		Posteriors: post,
	}
	if ru >= 0 {
		sp.Margin = post[best] - post[ru]
	}
	return sp
}

// squashMargin maps an unbounded margin into (0, 1) monotonically, so a
// fractional margin component can break vote ties without ever outvoting a
// whole vote.
func squashMargin(m float64) float64 {
	return 0.5 * (1 + m/(1+math.Abs(m)))
}
