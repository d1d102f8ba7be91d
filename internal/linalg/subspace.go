package linalg

import (
	"fmt"
	"math/rand"
)

// MatVec is a matrix-free linear operator: it writes A·x into out. The
// operator must be symmetric positive semi-definite for SubspaceIteration's
// convergence guarantees.
type MatVec func(x, out []float64)

// SubspaceIteration computes the r leading eigenpairs of a symmetric PSD
// operator of the given dimension without materializing it: orthogonal
// block power iteration with Rayleigh-Ritz extraction. Returns eigenvalues
// (descending) and the corresponding orthonormal eigenvector columns.
//
// This is the large-I path of HOSVD initialization: the Gram operator
// G = X(1)·X(1)ᵀ admits a cheap matrix-free product through the non-zero
// remainder groups, so the leading singular vectors cost
// O(sweeps · group-entries) instead of the O(I³) dense eigendecomposition.
// It runs on the calling goroutine, as QRThin and SymEig do, and reaches
// no engine plan.
func SubspaceIteration(op MatVec, dim, r, sweeps int, seed int64) ([]float64, *Matrix, error) {
	if r < 1 || r > dim {
		return nil, nil, fmt.Errorf("linalg: subspace rank %d out of [1,%d]", r, dim)
	}
	if sweeps < 1 {
		sweeps = 30
	}
	// Over-sample for faster convergence, then truncate after Rayleigh-Ritz.
	block := r + 4
	if block > dim {
		block = dim
	}
	rng := rand.New(rand.NewSource(seed))
	v := RandomOrthonormal(dim, block, rng)
	av := NewMatrix(dim, block)
	col := make([]float64, dim)
	acol := make([]float64, dim)

	apply := func(src, dst *Matrix) {
		for c := 0; c < block; c++ {
			for i := 0; i < dim; i++ {
				col[i] = src.At(i, c)
			}
			op(col, acol)
			for i := 0; i < dim; i++ {
				dst.Set(i, c, acol[i])
			}
		}
	}

	for s := 0; s < sweeps; s++ {
		apply(v, av)
		v = Orthonormalize(av)
	}

	// Rayleigh-Ritz: solve the small projected eigenproblem exactly.
	apply(v, av)
	small := MulTN(v, av) // block x block, symmetric up to FP noise
	for i := 0; i < block; i++ {
		for j := i + 1; j < block; j++ {
			m := (small.At(i, j) + small.At(j, i)) / 2
			small.Set(i, j, m)
			small.Set(j, i, m)
		}
	}
	values, w, err := SymEig(small)
	if err != nil {
		return nil, nil, err
	}
	ritz := Mul(v, w) // dim x block, columns by descending eigenvalue
	outVals := make([]float64, r)
	copy(outVals, values[:r])
	out := NewMatrix(dim, r)
	for i := 0; i < dim; i++ {
		copy(out.Row(i), ritz.Row(i)[:r])
	}
	return outVals, out, nil
}
