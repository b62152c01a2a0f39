package ml

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// GaussianNB is the naïve Bayes classifier with per-class, per-dimension
// Gaussian likelihoods (MATLAB fitcnb's default in the paper).
type GaussianNB struct {
	means  [][]float64 // [class][dim]
	vars   [][]float64
	priors []float64
	nc, p  int
}

// NewGaussianNB returns an untrained classifier.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Name implements Classifier.
func (g *GaussianNB) Name() string { return "NaiveBayes" }

// minVar floors per-dimension variances so constant features do not produce
// infinite log likelihoods.
const minVar = 1e-12

// Fit implements Classifier.
func (g *GaussianNB) Fit(X [][]float64, y []int) error {
	defer nbMet().timeFit()()
	nc, p, err := validateTraining(X, y)
	if err != nil {
		return err
	}
	byClass := splitByClass(y, nc)
	g.means = make([][]float64, nc)
	g.vars = make([][]float64, nc)
	g.priors = make([]float64, nc)
	col := make([]float64, 0, len(X))
	for c, idx := range byClass {
		if len(idx) < 2 {
			return errorsClassTooSmall(c, len(idx))
		}
		g.means[c] = make([]float64, p)
		g.vars[c] = make([]float64, p)
		for j := 0; j < p; j++ {
			col = col[:0]
			for _, i := range idx {
				col = append(col, X[i][j])
			}
			g.means[c][j] = stats.Mean(col)
			v := stats.Variance(col)
			if v < minVar {
				v = minVar
			}
			g.vars[c][j] = v
		}
		g.priors[c] = float64(len(idx)) / float64(len(X))
	}
	g.nc, g.p = nc, p
	return nil
}

// LogPosteriors returns per-class log posterior values (up to a constant).
func (g *GaussianNB) LogPosteriors(x []float64) ([]float64, error) {
	return g.logPosteriors(x, &Scratch{})
}

// logPosteriors is LogPosteriors written into s.
func (g *GaussianNB) logPosteriors(x []float64, s *Scratch) ([]float64, error) {
	if g.nc == 0 {
		return nil, errors.New("ml: GaussianNB used before Fit")
	}
	if len(x) != g.p {
		return nil, errDim(len(x), g.p)
	}
	out := take(&s.scores, g.nc)
	for c := 0; c < g.nc; c++ {
		ll := math.Log(g.priors[c])
		for j := 0; j < g.p; j++ {
			d := x[j] - g.means[c][j]
			ll += -0.5*math.Log(2*math.Pi*g.vars[c][j]) - d*d/(2*g.vars[c][j])
		}
		out[c] = ll
	}
	return out, nil
}

// Predict implements Classifier.
func (g *GaussianNB) Predict(x []float64) (int, error) {
	nbMet().predicts.Inc()
	s, err := g.LogPosteriors(x)
	if err != nil {
		return 0, err
	}
	return argmax(s), nil
}

// PredictScored implements ScoredClassifier (softmax of the log posteriors).
func (g *GaussianNB) PredictScored(x []float64) (ScoredPrediction, error) {
	return g.PredictScoredScratch(x, &Scratch{})
}

// PredictScoredScratch implements ScratchClassifier.
func (g *GaussianNB) PredictScoredScratch(x []float64, s *Scratch) (ScoredPrediction, error) {
	nbMet().predicts.Inc()
	lp, err := g.logPosteriors(x, s)
	if err != nil {
		return ScoredPrediction{}, err
	}
	return scoredFromLogScores(lp, take(&s.post, len(lp))), nil
}

func (g *GaussianNB) reserve(s *Scratch) { s.reserve(g.nc, g.p) }
