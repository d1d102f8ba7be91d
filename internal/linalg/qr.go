package linalg

import "math"

// QRThin computes the thin QR factorization A = Q·R of an m x n matrix with
// m >= n via Householder reflections: Q is m x n with orthonormal columns
// and R is n x n upper triangular with non-negative diagonal (which makes
// the factorization unique for full-rank A and keeps iterative algorithms
// deterministic). A is not modified.
//
// This is the orthogonalization step of HOQRI (paper Algorithm 4, line 5);
// its O(I·R²) cost is what replaces HOOI's SVD. It runs serially: each
// reflector updates at most n columns, and n is the rank R in the drivers,
// so a fan-out per reflector would cost more than it saves.
func QRThin(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	mustShape(m >= n, "linalg: QRThin needs rows >= cols, got %dx%d", m, n)
	// work holds the Householder vectors below the diagonal and the
	// strictly-upper part of R above it; rdiag holds R's diagonal.
	work := a.Clone()
	beta := make([]float64, n)
	rdiag := make([]float64, n)

	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			v := work.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			beta[k] = 0
			rdiag[k] = 0
			continue
		}
		alpha := -norm
		if work.At(k, k) < 0 {
			alpha = norm
		}
		work.Set(k, k, work.At(k, k)-alpha)
		var vtv float64
		for i := k; i < m; i++ {
			v := work.At(i, k)
			vtv += v * v
		}
		if vtv == 0 {
			beta[k] = 0
		} else {
			beta[k] = 2 / vtv
		}
		rdiag[k] = alpha

		// Apply H = I - beta·v·vᵀ to the trailing columns.
		for j := k + 1; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += work.At(i, k) * work.At(i, j)
			}
			dot *= beta[k]
			for i := k; i < m; i++ {
				work.Set(i, j, work.At(i, j)-dot*work.At(i, k))
			}
		}
	}

	// Extract R.
	r = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, rdiag[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}

	// Form thin Q by applying the reflectors in reverse to the first n
	// columns of the identity.
	q = NewMatrix(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if beta[k] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += work.At(i, k) * q.At(i, j)
			}
			dot *= beta[k]
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)-dot*work.At(i, k))
			}
		}
	}

	// Enforce a non-negative R diagonal by flipping matching Q columns and
	// R rows.
	for k := 0; k < n; k++ {
		if r.At(k, k) < 0 {
			for j := k; j < n; j++ {
				r.Set(k, j, -r.At(k, j))
			}
			for i := 0; i < m; i++ {
				q.Set(i, k, -q.At(i, k))
			}
		}
	}
	return q, r
}

// Orthonormalize returns an orthonormal basis for the column space of A:
// the Q factor of QRThin. Rank-deficient columns come out as the
// corresponding identity directions reflected through the factorization,
// which is adequate for the iterative drivers (they re-mix every sweep).
func Orthonormalize(a *Matrix) *Matrix {
	q, _ := QRThin(a)
	return q
}
