package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Kernel is an SVM kernel function.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// RBFKernel is the Gaussian radial basis kernel exp(-γ‖a−b‖²) used by the
// paper (LIBSVM default family).
type RBFKernel struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-k.Gamma * d)
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return fmt.Sprintf("rbf(γ=%g)", k.Gamma) }

// LinearKernel is the plain inner product.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += a[i] * b[i]
	}
	return d
}

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// binarySVM is a two-class soft-margin SVM trained with simplified SMO.
type binarySVM struct {
	kernel Kernel
	c      float64
	alphas []float64
	b      float64
	sv     [][]float64
	svY    []float64
}

// smoParams bound the SMO loop.
const (
	smoTol       = 1e-3
	smoMaxPasses = 8
	smoMaxIters  = 3000
)

// trainBinarySVM runs simplified SMO on X with labels y ∈ {−1, +1}.
func trainBinarySVM(rng *rand.Rand, kernel Kernel, c float64, X [][]float64, y []float64) (*binarySVM, error) {
	n := len(X)
	if n < 2 {
		return nil, errors.New("ml: binary SVM needs >= 2 samples")
	}
	// Precompute the kernel matrix; pair subsets are small enough.
	K := make([][]float64, n)
	for i := range K {
		K[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := kernel.Eval(X[i], X[j])
			K[i][j] = v
			K[j][i] = v
		}
	}
	alpha := make([]float64, n)
	b := 0.0
	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * K[i][j]
			}
		}
		return s
	}
	passes, iters := 0, 0
	for passes < smoMaxPasses && iters < smoMaxIters {
		iters++
		changed := 0
		for i := 0; i < n; i++ {
			Ei := f(i) - y[i]
			if (y[i]*Ei < -smoTol && alpha[i] < c) || (y[i]*Ei > smoTol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				Ej := f(j) - y[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(c, c+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-c)
					hi = math.Min(c, ai+aj)
				}
				if lo == hi {
					continue
				}
				eta := 2*K[i][j] - K[i][i] - K[j][j]
				if eta >= 0 {
					continue
				}
				ajNew := aj - y[j]*(Ei-Ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + y[i]*y[j]*(aj-ajNew)
				b1 := b - Ei - y[i]*(aiNew-ai)*K[i][i] - y[j]*(ajNew-aj)*K[i][j]
				b2 := b - Ej - y[i]*(aiNew-ai)*K[i][j] - y[j]*(ajNew-aj)*K[j][j]
				switch {
				case aiNew > 0 && aiNew < c:
					b = b1
				case ajNew > 0 && ajNew < c:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				alpha[i], alpha[j] = aiNew, ajNew
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	m := &binarySVM{kernel: kernel, c: c, b: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.alphas = append(m.alphas, alpha[i])
			m.sv = append(m.sv, X[i])
			m.svY = append(m.svY, y[i])
		}
	}
	return m, nil
}

// decision returns the signed margin of x.
func (m *binarySVM) decision(x []float64) float64 {
	s := m.b
	for i, sv := range m.sv {
		s += m.alphas[i] * m.svY[i] * m.kernel.Eval(sv, x)
	}
	return s
}

// SVM is a one-vs-one multiclass SVM. Each class pair gets its own binary
// SMO-trained machine; prediction is by majority vote (ties broken by total
// margin), exactly the LIBSVM strategy the paper uses.
type SVM struct {
	C      float64
	Kernel Kernel
	Seed   int64

	machines []*binarySVM
	pairs    [][2]int
	nc, p    int
}

// NewSVM returns an untrained SVM with the given penalty and kernel.
func NewSVM(c float64, kernel Kernel) *SVM {
	return &SVM{C: c, Kernel: kernel, Seed: 1}
}

// Name implements Classifier.
func (s *SVM) Name() string { return fmt.Sprintf("SVM(C=%g,%s)", s.C, s.Kernel.Name()) }

// Fit implements Classifier.
func (s *SVM) Fit(X [][]float64, y []int) error {
	defer svmMet().timeFit()()
	if s.C <= 0 {
		return fmt.Errorf("ml: SVM needs C > 0, got %g", s.C)
	}
	if s.Kernel == nil {
		return errors.New("ml: SVM needs a kernel")
	}
	nc, p, err := validateTraining(X, y)
	if err != nil {
		return err
	}
	byClass := splitByClass(y, nc)
	rng := rand.New(rand.NewSource(s.Seed))
	s.machines = nil
	s.pairs = nil
	for a := 0; a < nc; a++ {
		for bCls := a + 1; bCls < nc; bCls++ {
			var px [][]float64
			var py []float64
			for _, i := range byClass[a] {
				px = append(px, X[i])
				py = append(py, +1)
			}
			for _, i := range byClass[bCls] {
				px = append(px, X[i])
				py = append(py, -1)
			}
			if len(px) < 2 {
				return fmt.Errorf("ml: SVM pair (%d,%d) lacks samples", a, bCls)
			}
			m, err := trainBinarySVM(rng, s.Kernel, s.C, px, py)
			if err != nil {
				return err
			}
			s.machines = append(s.machines, m)
			s.pairs = append(s.pairs, [2]int{a, bCls})
		}
	}
	s.nc, s.p = nc, p
	return nil
}

// voteTally accumulates the one-vs-one votes and per-class total margins
// for x across all pair machines, written into s.
func (s *SVM) voteTally(x []float64, sc *Scratch) (votes []int, margin []float64, err error) {
	if len(s.machines) == 0 {
		return nil, nil, errors.New("ml: SVM used before Fit")
	}
	if len(x) != s.p {
		return nil, nil, errDim(len(x), s.p)
	}
	votes = take(&sc.votes, s.nc)
	margin = take(&sc.margin, s.nc)
	clear(votes)
	clear(margin)
	for i, m := range s.machines {
		d := m.decision(x)
		a, b := s.pairs[i][0], s.pairs[i][1]
		if d >= 0 {
			votes[a]++
			margin[a] += d
		} else {
			votes[b]++
			margin[b] -= d
		}
	}
	return votes, margin, nil
}

func (s *SVM) reserve(sc *Scratch) { sc.reserve(s.nc, s.p) }

// Predict implements Classifier.
func (s *SVM) Predict(x []float64) (int, error) {
	svmMet().predicts.Inc()
	votes, margin, err := s.voteTally(x, &Scratch{})
	if err != nil {
		return 0, err
	}
	best := 0
	for c := 1; c < s.nc; c++ {
		if votes[c] > votes[best] || (votes[c] == votes[best] && margin[c] > margin[best]) {
			best = c
		}
	}
	return best, nil
}

// PredictScored implements ScoredClassifier. The per-class weight is the vote
// count plus the squashed total margin: because the margin component lies in
// (0, 1) it never outvotes a whole vote, so the weight ordering reproduces
// Predict's votes-then-margin tie-break exactly while still exposing how
// decisively the winner won.
func (s *SVM) PredictScored(x []float64) (ScoredPrediction, error) {
	return s.PredictScoredScratch(x, &Scratch{})
}

// PredictScoredScratch implements ScratchClassifier.
func (s *SVM) PredictScoredScratch(x []float64, sc *Scratch) (ScoredPrediction, error) {
	svmMet().predicts.Inc()
	votes, margin, err := s.voteTally(x, sc)
	if err != nil {
		return ScoredPrediction{}, err
	}
	w := take(&sc.scores, s.nc)
	for c := range w {
		w[c] = float64(votes[c]) + squashMargin(margin[c])
	}
	return scoredFromWeights(w, take(&sc.post, len(w))), nil
}
