package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testkit"
)

// almostEq delegates to the shared tolerance semantics (absolute-only form).
func almostEq(a, b, tol float64) bool { return testkit.Close(a, b, 0, tol) }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 3)
	m.Set(1, 1, 5)
	if m.At(0, 2) != 3 || m.At(1, 1) != 5 {
		t.Fatalf("At/Set mismatch: %v", m.Data)
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 0) != 3 {
		t.Fatalf("transpose content wrong: %v", tr.Data)
	}
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliases original data")
	}
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("content wrong: %v", m.Data)
	}
}

func TestMulAgainstKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	y, err := a.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestIdentityMulIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	c, err := a.Mul(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	testkit.AllClose(t, c.Data, a.Data, 0, 1e-12, "A·I")
}

func TestMeanAndCovariance(t *testing.T) {
	X, _ := FromRows([][]float64{
		{1, 2},
		{3, 6},
		{5, 10},
	})
	mu := Mean(X)
	if !almostEq(mu[0], 3, 1e-12) || !almostEq(mu[1], 6, 1e-12) {
		t.Fatalf("mean = %v", mu)
	}
	cov, err := Covariance(X, nil)
	if err != nil {
		t.Fatal(err)
	}
	// var(x)=4, var(y)=16, cov=8 (perfectly correlated, y=2x).
	if !almostEq(cov.At(0, 0), 4, 1e-12) || !almostEq(cov.At(1, 1), 16, 1e-12) || !almostEq(cov.At(0, 1), 8, 1e-12) {
		t.Fatalf("cov = %v", cov.Data)
	}
	if !almostEq(cov.At(0, 1), cov.At(1, 0), 1e-15) {
		t.Fatal("covariance not symmetric")
	}
	if _, err := Covariance(NewMatrix(1, 2), nil); err == nil {
		t.Fatal("want error for single-row covariance")
	}
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 2, 0.6},
		{2, 5, 1.5},
		{0.6, 1.5, 3},
	})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3}
	x, err := ch.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := a.MulVec(x)
	testkit.AllClose(t, got, b, 0, 1e-9, "A·x vs b")
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 2},
		{2, 1}, // eigenvalues 3 and -1
	})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("want ErrNotPositiveDefinite")
	}
}

func TestRegularizedCholeskyRescuesSingular(t *testing.T) {
	// Rank-1 matrix: vvᵀ with v=(1,2).
	a, _ := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	ch, ridge, err := RegularizedCholesky(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if ridge <= 0 {
		t.Fatalf("expected positive ridge, got %g", ridge)
	}
	if ch == nil {
		t.Fatal("nil factorization")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 0},
		{0, 8},
	})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	testkit.InDelta(t, ch.LogDet(), math.Log(16), 1e-12, "logdet")
}

func TestCholeskyInverse(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 1},
		{1, 3},
	})
	ch, _ := NewCholesky(a)
	inv, err := ch.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-10) {
				t.Fatalf("A·A⁻¹ = %v", prod.Data)
			}
		}
	}
}

func TestMahalanobisSq(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 0},
		{0, 9},
	})
	ch, _ := NewCholesky(a)
	// (x-mu) = (2, 3): quadratic form = 4/4 + 9/9 = 2.
	q, err := ch.MahalanobisSq([]float64{2, 3}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	testkit.InDelta(t, q, 2, 1e-12, "mahalanobis quadratic form")
}

func TestEigenSymKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1},
		{1, 2},
	})
	vals, V, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// Check A·v = λ·v for each column.
	for k := 0; k < 2; k++ {
		v := []float64{V.At(0, k), V.At(1, k)}
		av, _ := a.MulVec(v)
		for i := range v {
			if !almostEq(av[i], vals[k]*v[i], 1e-9) {
				t.Fatalf("A·v != λv for k=%d: %v vs λ=%g v=%v", k, av, vals[k], v)
			}
		}
	}
}

func TestEigenSymRandomReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	// Build a random symmetric matrix.
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, V, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// Eigenvalues must be sorted descending.
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
	// V must be orthonormal: VᵀV = I.
	vtv, _ := V.T().Mul(V)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(vtv.At(i, j), want, 1e-8) {
				t.Fatalf("VᵀV not identity at (%d,%d): %g", i, j, vtv.At(i, j))
			}
		}
	}
	// Reconstruction A = V·diag(vals)·Vᵀ.
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, vals[i])
	}
	vd, _ := V.Mul(d)
	rec, _ := vd.Mul(V.T())
	testkit.AllClose(t, rec.Data, a.Data, 0, 1e-8, "V·diag(λ)·Vᵀ reconstruction")
}

func TestEigenSymTraceInvariant(t *testing.T) {
	// Property: sum of eigenvalues equals trace, for random symmetric inputs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(rng.Int31n(5))
		a := NewMatrix(n, n)
		var trace float64
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64() * 3
				a.Set(i, j, v)
				a.Set(j, i, v)
				if i == j {
					trace += v
				}
			}
		}
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return almostEq(sum, trace, 1e-8*(1+math.Abs(trace)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDotNormAXPY(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %g", Dot(a, b))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("AXPY = %v", y)
	}
	d := Sub(b, a)
	if d[0] != 3 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestAddScaleDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 44 {
		t.Fatalf("Add result %v", a.Data)
	}
	a.Scale(0.5)
	if a.At(0, 0) != 5.5 {
		t.Fatalf("Scale result %v", a.Data)
	}
	a.AddDiagonal(1)
	if a.At(0, 0) != 6.5 || a.At(0, 1) != 11 {
		t.Fatalf("AddDiagonal result %v", a.Data)
	}
	if err := a.Add(NewMatrix(1, 1)); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestCovarianceIsPSDProperty(t *testing.T) {
	// Property: a sample covariance matrix is positive semidefinite, i.e.
	// regularized Cholesky always succeeds with a tiny ridge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(rng.Int31n(10))
		p := 2 + int(rng.Int31n(4))
		X := NewMatrix(n, p)
		for i := range X.Data {
			X.Data[i] = rng.NormFloat64()
		}
		cov, err := Covariance(X, nil)
		if err != nil {
			return false
		}
		_, _, err = RegularizedCholesky(cov, 1e-10)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestErrShapeSentinel(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("FromRows ragged err = %v, want ErrShape", err)
	}
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("Mul mismatch err = %v, want ErrShape", err)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("MulVec mismatch err = %v, want ErrShape", err)
	}
	if err := a.Add(NewMatrix(3, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("Add mismatch err = %v, want ErrShape", err)
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("Cholesky non-square err = %v, want ErrShape", err)
	}
}

func TestCholeskyFromFactorValidates(t *testing.T) {
	// A valid factor round-trips.
	spd, err := FromRows([][]float64{{4, 1}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := CholeskyFromFactor(ch.L)
	if err != nil {
		t.Fatalf("valid factor rejected: %v", err)
	}
	want, _ := ch.SolveVec([]float64{1, 2})
	got, _ := restored.SolveVec([]float64{1, 2})
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("restored solve differs at %d: %g vs %g", i, got[i], want[i])
		}
	}

	// Corrupted factors are rejected with typed errors, not used.
	if _, err := CholeskyFromFactor(nil); !errors.Is(err, ErrShape) {
		t.Fatalf("nil factor err = %v, want ErrShape", err)
	}
	if _, err := CholeskyFromFactor(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square factor err = %v, want ErrShape", err)
	}
	short := NewMatrix(2, 2)
	short.Data = short.Data[:3]
	if _, err := CholeskyFromFactor(short); !errors.Is(err, ErrShape) {
		t.Fatalf("truncated factor err = %v, want ErrShape", err)
	}
	nan := NewMatrix(2, 2)
	nan.Set(0, 0, 1)
	nan.Set(1, 1, math.NaN())
	if _, err := CholeskyFromFactor(nan); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("NaN factor err = %v, want ErrNotPositiveDefinite", err)
	}
	zero := NewMatrix(2, 2)
	zero.Set(0, 0, 1) // pivot (1,1) left at 0
	if _, err := CholeskyFromFactor(zero); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("zero-pivot factor err = %v, want ErrNotPositiveDefinite", err)
	}
}

// The helpers below check the package through its tests only; no non-test
// code calls them.

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m·b, the dense product the decompositions are checked with.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: Mul %dx%d · %dx%d", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out, nil
}

// MulVec returns m·x as a new vector.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	out := make([]float64, m.Rows)
	if err := m.MulVecInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Inverse returns A⁻¹ as a dense matrix, column by column through SolveVec.
func (c *Cholesky) Inverse() (*Matrix, error) {
	inv := NewMatrix(c.n, c.n)
	e := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := c.SolveVec(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < c.n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// MahalanobisSq returns (x-mu)ᵀ A⁻¹ (x-mu) for the factorized A, through
// the scratch form the classifiers call.
func (c *Cholesky) MahalanobisSq(x, mu []float64) (float64, error) {
	return c.MahalanobisSqWith(make([]float64, c.n), x, mu)
}

// bitsEqual reports whether two vectors hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomFactor is a lower-triangular n×n factor with a positive diagonal,
// wrapped as a Cholesky.
func randomFactor(t *testing.T, rng *rand.Rand, n int) *Cholesky {
	t.Helper()
	L := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			L.Set(i, k, rng.NormFloat64()/math.Sqrt(float64(n)))
		}
		L.Set(i, i, 0.5+rng.Float64())
	}
	c, err := CholeskyFromFactor(L)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomVec draws n standard-normal values.
func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestMulVecIntoMatchesDot is the bitwise oracle of the four-rows-per-pass
// projection: every value equals Dot of its row with x, for row counts on
// and off multiples of four and lengths from 1 to 1200.
func TestMulVecIntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][2]int{{1, 1}, {3, 1200}, {4, 1}, {5, 7}, {7, 64}, {8, 3}, {13, 1179}, {17, 315}}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(23), 1 + rng.Intn(1200)})
	}
	for _, sh := range shapes {
		m := NewMatrix(sh[0], sh[1])
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		x := randomVec(rng, sh[1])
		got := make([]float64, sh[0])
		if err := m.MulVecInto(got, x); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, sh[0])
		for i := range want {
			want[i] = Dot(m.Row(i), x)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("%dx%d: MulVecInto differs from per-row Dot", sh[0], sh[1])
		}
	}
}

// TestMahalanobisSq4MatchesPerFactor is the bitwise oracle of the
// four-factor solve: each value equals its factor's MahalanobisSqWith, for
// orders from 1 to 1200.
func TestMahalanobisSq4MatchesPerFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	orders := []int{1, 2, 3, 5, 64, 1200}
	for i := 0; i < 4; i++ {
		orders = append(orders, 1+rng.Intn(400))
	}
	for _, n := range orders {
		var cs [4]*Cholesky
		var mus [4][]float64
		for k := range cs {
			cs[k], mus[k] = randomFactor(t, rng, n), randomVec(rng, n)
		}
		x := randomVec(rng, n)
		var got [4]float64
		if err := MahalanobisSq4(&got, make([]float64, 4*n), x, &cs, &mus); err != nil {
			t.Fatal(err)
		}
		for k := range cs {
			want, err := cs[k].MahalanobisSqWith(make([]float64, n), x, mus[k])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("order %d factor %d: %v, MahalanobisSqWith %v", n, k, got[k], want)
			}
		}
	}
	// Shapes that do not fit are errors, not panics.
	var cs [4]*Cholesky
	var mus [4][]float64
	for k := range cs {
		cs[k], mus[k] = randomFactor(t, rng, 3), randomVec(rng, 3)
	}
	var q [4]float64
	if err := MahalanobisSq4(&q, make([]float64, 12), make([]float64, 4), &cs, &mus); !errors.Is(err, ErrShape) {
		t.Errorf("x of the wrong length: %v, want ErrShape", err)
	}
	if err := MahalanobisSq4(&q, make([]float64, 11), make([]float64, 3), &cs, &mus); !errors.Is(err, ErrShape) {
		t.Errorf("short scratch: %v, want ErrShape", err)
	}
}
