package tucker

import (
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// HOOIRandomized runs HOOI with a randomized SVD step (the direction of the
// randomized-Tucker literature the paper cites, [44]-[47]): instead of
// materializing the full I x R^{N-1} unfolding for an exact SVD, the
// leading left singular vectors are extracted by block subspace iteration
// on the matrix-free Gram operator
//
//	G·v = Y_p(1) · (p ∘ (Y_p(1)ᵀ · v)),
//
// which needs only the compact unfolding (paper Property 3 diagonalizes
// EᵀE to the permutation-count vector p). This removes HOOI's memory cliff
// — it runs on the datasets where the faithful HOOI OOMs — at the cost of
// an approximate factor per sweep; the ALS objective still descends to the
// same level (tested), because each sweep only needs a good dominant
// subspace, not exact singular vectors.
func HOOIRandomized(x *spsym.Tensor, opts Options) (*Result, error) {
	return run(x, opts, step{
		algo:  "hooi-randomized",
		chain: (*env).symProp,
		svd:   randomizedSVD,
		core:  (*env).core,
	})
}

// randomizedSVD is HOOIRandomized's factor update: subspace iteration on
// the matrix-free Gram operator of the compact unfolding yp.
func randomizedSVD(e *env, it int, yp *linalg.Matrix) (*linalg.Matrix, error) {
	p := e.p
	scratch := make([]float64, yp.Cols)
	op := func(v, out []float64) {
		// w = diag(p) · Ypᵀ · v  (length S_{N-1,R}).
		for j := range scratch {
			scratch[j] = 0
		}
		for i := 0; i < yp.Rows; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			row := yp.Row(i)
			for j, rv := range row {
				scratch[j] += vi * rv
			}
		}
		for j := range scratch {
			scratch[j] *= p[j]
		}
		// out = Yp · w.
		for i := 0; i < yp.Rows; i++ {
			row := yp.Row(i)
			var s float64
			for j, rv := range row {
				s += rv * scratch[j]
			}
			out[i] = s
		}
	}
	// A handful of power sweeps suffices per ALS iteration: the factor is
	// refined again next sweep anyway.
	_, u, err := linalg.SubspaceIteration(op, e.x.Dim, e.opts.Rank, 8, e.opts.Seed+int64(it))
	return u, err
}
