package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization fails.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	L *Matrix
	n int
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// The input is not modified. If the factorization breaks down (the matrix is
// singular or indefinite), ErrNotPositiveDefinite is returned.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of non-square %dx%d matrix", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d += v * v
		}
		d = a.At(j, j) - d
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, (a.At(i, j)-s)/ljj)
		}
	}
	return &Cholesky{L: l, n: n}, nil
}

// RegularizedCholesky attempts to factorize a, adding geometrically
// increasing ridge terms to the diagonal until the factorization succeeds.
// This is what the discriminant classifiers use for near-singular
// class covariance matrices. It returns the factorization and the ridge
// value that was ultimately added (0 if none was needed).
func RegularizedCholesky(a *Matrix, baseEps float64) (*Cholesky, float64, error) {
	if baseEps <= 0 {
		baseEps = 1e-10
	}
	if ch, err := NewCholesky(a); err == nil {
		return ch, 0, nil
	}
	// Scale the ridge with the matrix magnitude so it is meaningful for both
	// tiny and huge covariances.
	var maxDiag float64
	for i := 0; i < a.Rows; i++ {
		if d := math.Abs(a.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag == 0 {
		maxDiag = 1
	}
	eps := baseEps * maxDiag
	for try := 0; try < 40; try++ {
		b := a.Clone()
		b.AddDiagonal(eps)
		if ch, err := NewCholesky(b); err == nil {
			return ch, eps, nil
		}
		eps *= 10
	}
	return nil, 0, ErrNotPositiveDefinite
}

// SolveVec solves A·x = b using the factorization.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: SolveVec length %d != order %d", ErrShape, len(b), c.n)
	}
	// Forward substitution L·y = b.
	y := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.L.At(i, k) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, c.n)
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
	return x, nil
}

// LogDet returns log(det(A)) = 2·Σ log(L[i][i]).
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// MahalanobisSqWith returns (x-mu)ᵀ A⁻¹ (x-mu) for the factorized A,
// solving into the caller's y, which must hold the factor's order and is
// overwritten.
func (c *Cholesky) MahalanobisSqWith(y, x, mu []float64) (float64, error) {
	if len(x) != c.n || len(mu) != c.n || len(y) != c.n {
		return 0, fmt.Errorf("%w: MahalanobisSq lengths (%d,%d,%d) != %d", ErrShape, len(x), len(mu), len(y), c.n)
	}
	// Solve L·y = (x-mu); then the quadratic form is ‖y‖².
	for i := 0; i < c.n; i++ {
		s := x[i] - mu[i]
		for k := 0; k < i; k++ {
			s -= c.L.At(i, k) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
	var q float64
	for _, v := range y {
		q += v * v
	}
	return q, nil
}

// MahalanobisSq4 is MahalanobisSqWith for four factorizations of one order
// n at once: q[k] is bitwise cs[k].MahalanobisSqWith(·, x, mus[k]). It
// walks the four forward substitutions row by row, each in
// MahalanobisSqWith's order, so four independent chains of adds overlap.
// y is scratch of at least 4n values and is overwritten.
func MahalanobisSq4(q *[4]float64, y, x []float64, cs *[4]*Cholesky, mus *[4][]float64) error {
	n := len(x)
	for k, c := range cs {
		if c.n != n || len(mus[k]) != n {
			return fmt.Errorf("%w: MahalanobisSq4 factor %d of order %d, mean %d, x %d", ErrShape, k, c.n, len(mus[k]), n)
		}
	}
	if len(y) < 4*n {
		return fmt.Errorf("%w: MahalanobisSq4 scratch %d < 4×%d", ErrShape, len(y), n)
	}
	y0, y1, y2, y3 := y[:n], y[n:2*n], y[2*n:3*n], y[3*n:4*n]
	m0, m1, m2, m3 := mus[0][:n], mus[1][:n], mus[2][:n], mus[3][:n]
	for i, xi := range x {
		// Row i of each factor up to the diagonal.
		l0 := cs[0].L.Data[i*n:][:i+1]
		l1 := cs[1].L.Data[i*n:][:i+1]
		l2 := cs[2].L.Data[i*n:][:i+1]
		l3 := cs[3].L.Data[i*n:][:i+1]
		s0, s1, s2, s3 := xi-m0[i], xi-m1[i], xi-m2[i], xi-m3[i]
		for k := 0; k < i; k++ {
			s0 -= l0[k] * y0[k]
			s1 -= l1[k] * y1[k]
			s2 -= l2[k] * y2[k]
			s3 -= l3[k] * y3[k]
		}
		y0[i], y1[i], y2[i], y3[i] = s0/l0[i], s1/l1[i], s2/l2[i], s3/l3[i]
	}
	var q0, q1, q2, q3 float64
	for i := range x {
		q0 += y0[i] * y0[i]
		q1 += y1[i] * y1[i]
		q2 += y2[i] * y2[i]
		q3 += y3[i] * y3[i]
	}
	*q = [4]float64{q0, q1, q2, q3}
	return nil
}

// CholeskyFromFactor wraps an existing lower-triangular factor L (e.g. one
// restored from persisted classifier state) as a usable factorization. The
// factor is validated — square shape, finite entries, strictly positive
// diagonal — because a corrupted template file would otherwise smuggle
// NaN/zero pivots into every later solve (the old panic-or-poison path).
func CholeskyFromFactor(L *Matrix) (*Cholesky, error) {
	if L == nil {
		return nil, fmt.Errorf("%w: nil Cholesky factor", ErrShape)
	}
	if L.Rows != L.Cols || len(L.Data) != L.Rows*L.Cols {
		return nil, fmt.Errorf("%w: Cholesky factor claims %dx%d with %d elements", ErrShape, L.Rows, L.Cols, len(L.Data))
	}
	for _, v := range L.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("linalg: Cholesky factor has non-finite entry: %w", ErrNotPositiveDefinite)
		}
	}
	for i := 0; i < L.Rows; i++ {
		if L.At(i, i) <= 0 {
			return nil, fmt.Errorf("linalg: Cholesky factor pivot %d is %g: %w", i, L.At(i, i), ErrNotPositiveDefinite)
		}
	}
	return &Cholesky{L: L, n: L.Rows}, nil
}
