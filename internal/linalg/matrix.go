// Package linalg provides the small dense linear-algebra kernel used by the
// feature-reduction (PCA) and discriminant-analysis (LDA/QDA) stages of the
// side-channel disassembler. It is deliberately minimal: real matrices,
// Cholesky factorization, symmetric eigendecomposition, and the handful of
// solves the classifiers need, implemented with the standard library only.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is the typed sentinel wrapped by every dimension-mismatch error
// in this package. Callers that feed the kernel data of uncontrolled origin
// (persisted template state, user-supplied feature vectors) test for it with
// errors.Is instead of string matching.
var ErrShape = errors.New("linalg: shape mismatch")

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("linalg: FromRows needs at least one row")
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVecInto writes m·x into dst, which must hold m.Rows values and must
// not overlap x. Each value is bitwise Dot(m.Row(i), x): four rows are
// summed per pass over x, each in Dot's order, so four independent chains
// of adds overlap instead of one running at a time. Leftover rows use Dot.
func (m *Matrix) MulVecInto(dst, x []float64) error {
	if m.Cols != len(x) || len(dst) != m.Rows {
		return fmt.Errorf("%w: MulVec %dx%d · %d into %d", ErrShape, m.Rows, m.Cols, len(x), len(dst))
	}
	n := len(x)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*n:][:n]
		r1 := m.Data[(i+1)*n:][:n]
		r2 := m.Data[(i+2)*n:][:n]
		r3 := m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return nil
}

// Add adds b into m in place.
func (m *Matrix) Add(b *Matrix) error {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return fmt.Errorf("%w: Add %dx%d + %dx%d", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
	return nil
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddDiagonal adds eps to every diagonal entry in place (ridge
// regularization for near-singular covariance matrices).
func (m *Matrix) AddDiagonal(eps float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += eps
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.5g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Mean returns the per-column mean of the rows of X.
func Mean(X *Matrix) []float64 {
	mu := make([]float64, X.Cols)
	if X.Rows == 0 {
		return mu
	}
	for i := 0; i < X.Rows; i++ {
		row := X.Row(i)
		for j, v := range row {
			mu[j] += v
		}
	}
	inv := 1.0 / float64(X.Rows)
	for j := range mu {
		mu[j] *= inv
	}
	return mu
}

// Covariance returns the sample covariance matrix (divisor n-1) of the rows
// of X about the supplied mean. If mu is nil it is computed.
func Covariance(X *Matrix, mu []float64) (*Matrix, error) {
	if X.Rows < 2 {
		return nil, fmt.Errorf("linalg: covariance needs >=2 rows, got %d", X.Rows)
	}
	if mu == nil {
		mu = Mean(X)
	}
	if len(mu) != X.Cols {
		return nil, fmt.Errorf("%w: covariance mean length %d != cols %d", ErrShape, len(mu), X.Cols)
	}
	p := X.Cols
	cov := NewMatrix(p, p)
	d := make([]float64, p)
	for i := 0; i < X.Rows; i++ {
		row := X.Row(i)
		for j := range d {
			d[j] = row[j] - mu[j]
		}
		for a := 0; a < p; a++ {
			da := d[a]
			if da == 0 {
				continue
			}
			ca := cov.Row(a)
			for b := a; b < p; b++ {
				ca[b] += da * d[b]
			}
		}
	}
	inv := 1.0 / float64(X.Rows-1)
	for a := 0; a < p; a++ {
		for b := a; b < p; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov, nil
}
