package features

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// PCA projects feature vectors onto the leading principal components of the
// training distribution (Section 3.2 of the paper).
type PCA struct {
	Mean       []float64
	Components *linalg.Matrix // k×p: rows are principal directions
	EigVals    []float64      // variance along each kept component
}

// jacobiMaxDim is the largest input dimensionality solved with a dense
// eigendecomposition; above it, FitPCA switches to matrix-free subspace
// iteration (the KL-selected unions of large class sets — e.g. the 496
// register pairs — can exceed 2 000 points, where O(p³) Jacobi is hopeless).
const jacobiMaxDim = 400

// FitPCA learns a k-component PCA from rows of X. k is clamped to the
// number of dimensions, and additionally to the number of components with
// strictly positive variance (keeping at least one): a zero-variance
// direction carries no signal and its eigenvector is numerically arbitrary,
// so retaining it would make the projection depend on round-off. Non-finite
// training features are rejected with a stats.ErrDegenerate wrapped error —
// a single NaN would otherwise contaminate the whole covariance. ctx
// reaches the worker-pool products of the subspace fit: a cancelled context
// stops it between tasks with ctx.Err(), and a span in ctx is credited with
// the pool's busy time.
func FitPCA(ctx context.Context, X [][]float64, k int) (*PCA, error) {
	if len(X) < 2 {
		return nil, errors.New("features: PCA needs at least 2 samples")
	}
	if k < 1 {
		return nil, fmt.Errorf("features: PCA needs k >= 1, got %d", k)
	}
	for i, row := range X {
		if !stats.AllFinite(row) {
			return nil, fmt.Errorf("features: PCA row %d: %w: non-finite feature", i, stats.ErrDegenerate)
		}
	}
	M, err := linalg.FromRows(X)
	if err != nil {
		return nil, err
	}
	p := M.Cols
	if k > p {
		k = p
	}
	mu := linalg.Mean(M)
	if p > jacobiMaxDim {
		pc, err := fitPCASubspace(ctx, M, mu, k)
		if err != nil {
			return nil, err
		}
		return pc.dropZeroVariance(), nil
	}
	cov, err := linalg.Covariance(M, mu)
	if err != nil {
		return nil, err
	}
	vals, V, err := linalg.EigenSym(cov)
	if err != nil {
		return nil, err
	}
	comp := linalg.NewMatrix(k, p)
	for c := 0; c < k; c++ {
		for r := 0; r < p; r++ {
			comp.Set(c, r, V.At(r, c))
		}
	}
	return (&PCA{Mean: mu, Components: comp, EigVals: vals[:k]}).dropZeroVariance(), nil
}

// zeroVarEps is the eigenvalue threshold below which a principal direction is
// treated as zero-variance and dropped by dropZeroVariance.
const zeroVarEps = 1e-12

// dropZeroVariance truncates the component set after the last direction with
// variance above zeroVarEps. Eigenvalues arrive sorted descending (EigenSym)
// or near-descending (subspace iteration), so this only trims the degenerate
// tail; at least one component is always kept.
func (pc *PCA) dropZeroVariance() *PCA {
	keep := 0
	for _, v := range pc.EigVals {
		if v > zeroVarEps && !math.IsNaN(v) {
			keep++
		} else {
			break
		}
	}
	if keep == 0 {
		keep = 1
	}
	if keep == len(pc.EigVals) {
		return pc
	}
	p := pc.Components.Cols
	comp := linalg.NewMatrix(keep, p)
	copy(comp.Data, pc.Components.Data[:keep*p])
	pc.Components = comp
	pc.EigVals = pc.EigVals[:keep]
	return pc
}

// fitPCASubspace computes the leading k principal components by block power
// iteration on the centered data, never forming the p×p covariance:
// V ← orth(Cᵀ(C·V)/(n−1)) with C the centered data matrix. Both products run
// on the worker pool, split by output row; each output entry is summed in the
// serial order, so the result does not depend on the worker count.
func fitPCASubspace(ctx context.Context, M *linalg.Matrix, mu []float64, k int) (*PCA, error) {
	n, p := M.Rows, M.Cols
	C := M.Clone()
	for i := 0; i < n; i++ {
		row := C.Row(i)
		for j := range row {
			row[j] -= mu[j]
		}
	}
	// Deterministic pseudo-random init.
	V := linalg.NewMatrix(p, k)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range V.Data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		V.Data[i] = float64(int64(state%2001)-1000) / 1000
	}
	orthonormalizeColumns(V)
	inv := 1 / float64(n-1)
	const iters = 12
	for it := 0; it < iters; it++ {
		// W = C·V (n×k), then V ← Cᵀ·W scaled.
		W, err := mulRows(ctx, C, V)
		if err != nil {
			return nil, err
		}
		next := linalg.NewMatrix(p, k)
		// Each task owns pcaBlock rows of next and walks C's rows in order,
		// so next[j][c] sums over i exactly as a serial loop would.
		err = parallel.ForCtx(ctx, (p+pcaBlock-1)/pcaBlock, func(b int) {
			lo := b * pcaBlock
			hi := min(lo+pcaBlock, p)
			for i := 0; i < n; i++ {
				wi := W.Row(i)
				for j, cij := range C.Row(i)[lo:hi] {
					if cij == 0 {
						continue
					}
					nj := next.Row(lo + j)
					for c := 0; c < k; c++ {
						nj[c] += cij * wi[c]
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		next.Scale(inv)
		V = next
		orthonormalizeColumns(V)
	}
	// Rayleigh-quotient eigenvalues: λ_c = ‖C·v_c‖²/(n−1).
	vals := make([]float64, k)
	W, err := mulRows(ctx, C, V)
	if err != nil {
		return nil, err
	}
	for c := 0; c < k; c++ {
		var s float64
		for i := 0; i < n; i++ {
			v := W.At(i, c)
			s += v * v
		}
		vals[c] = s * inv
	}
	comp := linalg.NewMatrix(k, p)
	for c := 0; c < k; c++ {
		for r := 0; r < p; r++ {
			comp.Set(c, r, V.At(r, c))
		}
	}
	return &PCA{Mean: mu, Components: comp, EigVals: vals}, nil
}

// pcaBlock is how many rows of Cᵀ·W one task of fitPCASubspace owns.
const pcaBlock = 64

// mulBlock is how many rows of C·V one task of mulRows computes per pass
// over V: one row per pass streams all of V from cache for each row of C,
// and that traffic, not arithmetic, bounded the product on two workers.
const mulBlock = 8

// mulRows returns C·V on the worker pool, mulBlock rows per task. Each
// entry sums over C's columns in order, skipping zero entries of C, so the
// product does not depend on the worker count.
func mulRows(ctx context.Context, C, V *linalg.Matrix) (*linalg.Matrix, error) {
	W := linalg.NewMatrix(C.Rows, V.Cols)
	err := parallel.ForCtx(ctx, (C.Rows+mulBlock-1)/mulBlock, func(b int) {
		lo := b * mulBlock
		hi := min(lo+mulBlock, C.Rows)
		for r := 0; r < C.Cols; r++ {
			vr := V.Row(r)
			for i := lo; i < hi; i++ {
				a := C.At(i, r)
				if a == 0 {
					continue
				}
				wi := W.Row(i)
				for c, v := range vr {
					wi[c] += a * v
				}
			}
		}
	})
	return W, err
}

// orthonormalizeColumns runs modified Gram–Schmidt over the columns of V.
func orthonormalizeColumns(V *linalg.Matrix) {
	p, k := V.Rows, V.Cols
	col := make([]float64, p)
	for c := 0; c < k; c++ {
		for r := 0; r < p; r++ {
			col[r] = V.At(r, c)
		}
		for prev := 0; prev < c; prev++ {
			var dot float64
			for r := 0; r < p; r++ {
				dot += col[r] * V.At(r, prev)
			}
			for r := 0; r < p; r++ {
				col[r] -= dot * V.At(r, prev)
			}
		}
		norm := linalg.Norm2(col)
		if norm < 1e-12 {
			// Degenerate direction: reset to a unit basis vector.
			for r := range col {
				col[r] = 0
			}
			col[c%p] = 1
			norm = 1
		}
		for r := 0; r < p; r++ {
			V.Set(r, c, col[r]/norm)
		}
	}
}

// NumComponents returns the number of retained components k.
func (pc *PCA) NumComponents() int { return pc.Components.Rows }

// InputDim returns the expected input dimensionality p.
func (pc *PCA) InputDim() int { return pc.Components.Cols }

// Transform projects x onto the principal components.
func (pc *PCA) Transform(x []float64) ([]float64, error) {
	out := make([]float64, pc.NumComponents())
	if err := pc.TransformInto(out, append([]float64(nil), x...)); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformInto is Transform into caller buffers: it centres x in place
// (x is overwritten) and writes the projection into dst, which must hold
// NumComponents values.
func (pc *PCA) TransformInto(dst, x []float64) error {
	p := pc.InputDim()
	if len(x) != p {
		return fmt.Errorf("features: PCA input dim %d, want %d", len(x), p)
	}
	if len(pc.Mean) != p {
		return fmt.Errorf("%w: PCA mean length %d, components expect %d", linalg.ErrShape, len(pc.Mean), p)
	}
	for i := range x {
		x[i] -= pc.Mean[i]
	}
	return pc.Components.MulVecInto(dst, x)
}

// TransformAll projects every row.
func (pc *PCA) TransformAll(X [][]float64) ([][]float64, error) {
	out := make([][]float64, len(X))
	for i, x := range X {
		y, err := pc.Transform(x)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}
