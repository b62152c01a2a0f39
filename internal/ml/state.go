package ml

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// This file provides serializable snapshots of trained classifiers so
// template sets can be persisted (encoding/gob) and reloaded without
// re-profiling the device. Each snapshot holds only exported fields.

// LDAState is the serializable form of a trained LDA classifier.
type LDAState struct {
	Means        [][]float64
	PooledFactor *linalg.Matrix // lower-triangular Cholesky factor
	Priors       []float64
}

// State snapshots a trained LDA.
func (l *LDA) State() (*LDAState, error) {
	if l.chol == nil {
		return nil, errors.New("ml: LDA not trained")
	}
	return &LDAState{Means: l.means, PooledFactor: l.chol.L, Priors: l.priors}, nil
}

// rectRows validates that rows form a non-degenerate rectangle of width p.
// Restored snapshots come from files of uncontrolled origin, and the predict
// paths index rows by the class count and p without re-checking — a ragged
// or short row smuggled past restore would panic at classification time.
func rectRows(what string, rows [][]float64, p int) error {
	if p < 1 {
		return fmt.Errorf("ml: %s have zero dimension", what)
	}
	for i, r := range rows {
		if len(r) != p {
			return fmt.Errorf("ml: %s row %d has dimension %d, want %d", what, i, len(r), p)
		}
	}
	return nil
}

// checkPriors validates that priors cover every class (the predict paths
// index priors[c] for c in [0, nc)).
func checkPriors(priors []float64, nc int) error {
	if len(priors) != nc {
		return fmt.Errorf("ml: %d priors for %d classes", len(priors), nc)
	}
	return nil
}

// LDAFromState reconstructs a trained LDA.
func LDAFromState(st *LDAState) (*LDA, error) {
	if st == nil || len(st.Means) < 2 || st.PooledFactor == nil {
		return nil, errors.New("ml: invalid LDA state")
	}
	if err := rectRows("LDA means", st.Means, len(st.Means[0])); err != nil {
		return nil, err
	}
	if err := checkPriors(st.Priors, len(st.Means)); err != nil {
		return nil, err
	}
	chol, err := linalg.CholeskyFromFactor(st.PooledFactor)
	if err != nil {
		return nil, fmt.Errorf("ml: restoring LDA: %w", err)
	}
	l := &LDA{
		means:  st.Means,
		chol:   chol,
		priors: st.Priors,
		nc:     len(st.Means),
		p:      len(st.Means[0]),
	}
	l.wc = make([][]float64, l.nc)
	l.bc = make([]float64, l.nc)
	for c := 0; c < l.nc; c++ {
		w, err := l.chol.SolveVec(st.Means[c])
		if err != nil {
			return nil, fmt.Errorf("ml: restoring LDA: %w", err)
		}
		l.wc[c] = w
		l.bc[c] = -0.5*linalg.Dot(st.Means[c], w) + logPrior(st.Priors, c)
	}
	return l, nil
}

// QDAState is the serializable form of a trained QDA classifier.
type QDAState struct {
	Means   [][]float64
	Factors []*linalg.Matrix // per-class Cholesky factors
	Priors  []float64
}

// State snapshots a trained QDA.
func (q *QDA) State() (*QDAState, error) {
	if len(q.chols) == 0 {
		return nil, errors.New("ml: QDA not trained")
	}
	st := &QDAState{Means: q.means, Priors: q.priors}
	for _, ch := range q.chols {
		st.Factors = append(st.Factors, ch.L)
	}
	return st, nil
}

// QDAFromState reconstructs a trained QDA.
func QDAFromState(st *QDAState) (*QDA, error) {
	if st == nil || len(st.Means) < 2 || len(st.Factors) != len(st.Means) {
		return nil, errors.New("ml: invalid QDA state")
	}
	if err := rectRows("QDA means", st.Means, len(st.Means[0])); err != nil {
		return nil, err
	}
	if err := checkPriors(st.Priors, len(st.Means)); err != nil {
		return nil, err
	}
	q := &QDA{
		means:  st.Means,
		priors: st.Priors,
		nc:     len(st.Means),
		p:      len(st.Means[0]),
	}
	for c, f := range st.Factors {
		ch, err := linalg.CholeskyFromFactor(f)
		if err != nil {
			return nil, fmt.Errorf("ml: restoring QDA class %d: %w", c, err)
		}
		if f.Rows != q.p {
			return nil, fmt.Errorf("ml: restoring QDA class %d: factor is %dx%d for dimension %d", c, f.Rows, f.Cols, q.p)
		}
		q.chols = append(q.chols, ch)
		q.logDets = append(q.logDets, ch.LogDet())
	}
	q.logPriors = logs(q.priors)
	return q, nil
}

// NBState is the serializable form of a trained Gaussian naïve Bayes.
type NBState struct {
	Means  [][]float64
	Vars   [][]float64
	Priors []float64
}

// State snapshots a trained GaussianNB.
func (g *GaussianNB) State() (*NBState, error) {
	if g.nc == 0 {
		return nil, errors.New("ml: GaussianNB not trained")
	}
	return &NBState{Means: g.means, Vars: g.vars, Priors: g.priors}, nil
}

// NBFromState reconstructs a trained GaussianNB.
func NBFromState(st *NBState) (*GaussianNB, error) {
	if st == nil || len(st.Means) < 2 || len(st.Vars) != len(st.Means) {
		return nil, errors.New("ml: invalid NB state")
	}
	p := len(st.Means[0])
	if err := rectRows("NB means", st.Means, p); err != nil {
		return nil, err
	}
	if err := rectRows("NB variances", st.Vars, p); err != nil {
		return nil, err
	}
	if err := checkPriors(st.Priors, len(st.Means)); err != nil {
		return nil, err
	}
	return &GaussianNB{
		means:  st.Means,
		vars:   st.Vars,
		priors: st.Priors,
		nc:     len(st.Means),
		p:      len(st.Means[0]),
	}, nil
}

// KNNState is the serializable form of a trained kNN (the training set).
type KNNState struct {
	K      int
	X      [][]float64
	Labels []int
}

// State snapshots a trained KNN.
func (k *KNN) State() (*KNNState, error) {
	if k.X == nil {
		return nil, errors.New("ml: kNN not trained")
	}
	return &KNNState{K: k.K, X: k.X, Labels: k.y}, nil
}

// KNNFromState reconstructs a trained KNN.
func KNNFromState(st *KNNState) (*KNN, error) {
	if st == nil || st.K < 1 || len(st.X) == 0 {
		return nil, errors.New("ml: invalid kNN state")
	}
	k := NewKNN(st.K)
	if err := k.Fit(st.X, st.Labels); err != nil {
		return nil, err
	}
	return k, nil
}

// SVMKernelState identifies a kernel in serialized form.
type SVMKernelState struct {
	Kind  string // "rbf" or "linear"
	Gamma float64
}

// BinarySVMState is one pair machine of a one-vs-one SVM.
type BinarySVMState struct {
	Alphas []float64
	SVs    [][]float64
	SVYs   []float64
	Bias   float64
}

// SVMState is the serializable form of a trained one-vs-one SVM.
type SVMState struct {
	C        float64
	Kernel   SVMKernelState
	Machines []BinarySVMState
	Pairs    [][2]int
	Classes  int
	Dim      int
}

// State snapshots a trained SVM.
func (s *SVM) State() (*SVMState, error) {
	if len(s.machines) == 0 {
		return nil, errors.New("ml: SVM not trained")
	}
	st := &SVMState{C: s.C, Pairs: s.pairs, Classes: s.nc, Dim: s.p}
	switch k := s.Kernel.(type) {
	case RBFKernel:
		st.Kernel = SVMKernelState{Kind: "rbf", Gamma: k.Gamma}
	case LinearKernel:
		st.Kernel = SVMKernelState{Kind: "linear"}
	default:
		return nil, fmt.Errorf("ml: kernel %T is not serializable", s.Kernel)
	}
	for _, m := range s.machines {
		st.Machines = append(st.Machines, BinarySVMState{
			Alphas: m.alphas, SVs: m.sv, SVYs: m.svY, Bias: m.b,
		})
	}
	return st, nil
}

// SVMFromState reconstructs a trained SVM.
func SVMFromState(st *SVMState) (*SVM, error) {
	if st == nil || len(st.Machines) == 0 || len(st.Machines) != len(st.Pairs) {
		return nil, errors.New("ml: invalid SVM state")
	}
	var kernel Kernel
	switch st.Kernel.Kind {
	case "rbf":
		kernel = RBFKernel{Gamma: st.Kernel.Gamma}
	case "linear":
		kernel = LinearKernel{}
	default:
		return nil, fmt.Errorf("ml: unknown kernel kind %q", st.Kernel.Kind)
	}
	if st.Dim < 1 || st.Classes < 2 {
		return nil, fmt.Errorf("ml: invalid SVM state: %d classes, dimension %d", st.Classes, st.Dim)
	}
	for _, pr := range st.Pairs {
		if pr[0] < 0 || pr[0] >= st.Classes || pr[1] < 0 || pr[1] >= st.Classes {
			return nil, fmt.Errorf("ml: SVM pair (%d,%d) outside %d classes", pr[0], pr[1], st.Classes)
		}
	}
	// The decision function dots every support vector against the input, so
	// a ragged or misaligned machine would panic inside the kernel.
	for i, m := range st.Machines {
		if len(m.Alphas) != len(m.SVs) || len(m.SVYs) != len(m.SVs) {
			return nil, fmt.Errorf("ml: SVM machine %d: %d alphas / %d SVs / %d labels", i, len(m.Alphas), len(m.SVs), len(m.SVYs))
		}
		if err := rectRows(fmt.Sprintf("SVM machine %d support vectors", i), m.SVs, st.Dim); err != nil {
			return nil, err
		}
	}
	s := NewSVM(st.C, kernel)
	s.pairs = st.Pairs
	s.nc = st.Classes
	s.p = st.Dim
	for _, m := range st.Machines {
		s.machines = append(s.machines, &binarySVM{
			kernel: kernel, c: st.C, alphas: m.Alphas, sv: m.SVs, svY: m.SVYs, b: m.Bias,
		})
	}
	return s, nil
}

// ClassifierState is a tagged union over the classifier snapshots; exactly
// one field is non-nil.
type ClassifierState struct {
	LDA *LDAState
	QDA *QDAState
	NB  *NBState
	KNN *KNNState
	SVM *SVMState
}

// SnapshotClassifier captures any of the package's classifiers.
func SnapshotClassifier(clf Classifier) (*ClassifierState, error) {
	switch c := clf.(type) {
	case *LDA:
		st, err := c.State()
		return &ClassifierState{LDA: st}, err
	case *QDA:
		st, err := c.State()
		return &ClassifierState{QDA: st}, err
	case *GaussianNB:
		st, err := c.State()
		return &ClassifierState{NB: st}, err
	case *KNN:
		st, err := c.State()
		return &ClassifierState{KNN: st}, err
	case *SVM:
		st, err := c.State()
		return &ClassifierState{SVM: st}, err
	default:
		return nil, fmt.Errorf("ml: classifier %T is not serializable", clf)
	}
}

// RestoreClassifier reverses SnapshotClassifier.
func RestoreClassifier(st *ClassifierState) (Classifier, error) {
	switch {
	case st == nil:
		return nil, errors.New("ml: nil classifier state")
	case st.LDA != nil:
		return LDAFromState(st.LDA)
	case st.QDA != nil:
		return QDAFromState(st.QDA)
	case st.NB != nil:
		return NBFromState(st.NB)
	case st.KNN != nil:
		return KNNFromState(st.KNN)
	case st.SVM != nil:
		return SVMFromState(st.SVM)
	default:
		return nil, errors.New("ml: empty classifier state")
	}
}

func logPrior(priors []float64, c int) float64 {
	// Guard against zero priors in hand-built states.
	p := priors[c]
	if p <= 0 {
		p = 1e-12
	}
	return math.Log(p)
}
