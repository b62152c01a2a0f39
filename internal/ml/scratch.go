package ml

// Scratch is caller-owned working memory for the scored predictors: the
// per-class scores, votes and posteriors, QDA's Mahalanobis solve vector
// and kNN's neighbour list. A decoder that predicts trace after trace keeps
// one Scratch per goroutine and allocates nothing per prediction. The zero
// value is ready to use; its buffers grow to the largest classifier they
// serve and are reused after. A Scratch is not safe for concurrent use.
type Scratch struct {
	scores []float64 // per-class scores, log posteriors or vote weights
	post   []float64 // per-class posteriors
	margin []float64 // SVM per-class total margins
	solve  []float64 // QDA solve vectors, four feature dimensions long
	votes  []int     // SVM per-class votes
	nbs    neighbours
}

// NewScratch returns a Scratch already sized for every given classifier,
// so its first prediction through any of them allocates nothing either.
// Classifiers from outside this package are skipped.
func NewScratch(clfs ...Classifier) *Scratch {
	s := &Scratch{}
	for _, c := range clfs {
		if r, ok := c.(interface{ reserve(*Scratch) }); ok {
			r.reserve(s)
		}
	}
	return s
}

// reserve grows s for nc classes and a solve vector of p values.
func (s *Scratch) reserve(nc, p int) {
	take(&s.scores, nc)
	take(&s.post, nc)
	take(&s.margin, nc)
	take(&s.votes, nc)
	take(&s.solve, p)
}

// take returns the first n elements of *buf, growing it first when its
// capacity is short. The contents are whatever the last use left.
func take[S ~[]E, E any](buf *S, n int) S {
	if cap(*buf) < n {
		*buf = make(S, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ScoredFromLogScores builds a ScoredPrediction from per-class log-space
// scores with the same max-shifted softmax the built-in scored predictors
// use, for callers that post-process scores — e.g. masking classes a
// hierarchical decoder has no downstream templates for to math.Inf(-1),
// which gives them zero posterior and makes them unelectable. The
// posteriors are written into s; the result's Posteriors alias s until its
// next use. scores must not alias s's posterior buffer (ScoresScratch output
// does not).
func (s *Scratch) ScoredFromLogScores(scores []float64) ScoredPrediction {
	return scoredFromLogScores(scores, take(&s.post, len(scores)))
}

// ScratchClassifier is a ScoredClassifier whose scored path runs in
// caller-owned working memory. Every classifier in this package implements
// it.
type ScratchClassifier interface {
	ScoredClassifier
	// PredictScoredScratch is PredictScored with every intermediate written
	// into s: same label, same confidence and margin, bit for bit. The
	// returned Posteriors alias s until its next use.
	PredictScoredScratch(x []float64, s *Scratch) (ScoredPrediction, error)
}

// ScratchScorer is a Scorer whose scores can be computed into caller-owned
// working memory (LDA and QDA).
type ScratchScorer interface {
	Scorer
	// ScoresScratch is Scores written into s; the result aliases s until
	// its next use.
	ScoresScratch(x []float64, s *Scratch) ([]float64, error)
}
