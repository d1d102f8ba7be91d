package kernels

import (
	"sync"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// permCountCache memoizes the permutation-count vector p (paper Property 3)
// by (order, rank); the paper computes it once and memoizes it across
// Tucker iterations (§IV-C).
var permCountCache sync.Map // key uint64 -> []float64

// PermCounts returns the memoized multinomial permutation-count vector for
// the compact symmetric layout of the given order and rank, computed by
// dense.PermCounts on first use.
func PermCounts(order, r int) []float64 {
	key := uint64(order)<<32 | uint64(uint32(r))
	if v, ok := permCountCache.Load(key); ok {
		return v.([]float64)
	}
	actual, _ := permCountCache.LoadOrStore(key, dense.PermCounts(order, r))
	return actual.([]float64)
}

// TCResult bundles the outputs of S3TTMcTC: A, the matrix HOQRI
// orthonormalizes, with the Yp and Cp it was formed from. Its callers are
// the public symprop.S3TTMcTC, the figure harness and bench.Verify; the
// Tucker drivers run the three stages themselves, one per step of a sweep,
// writing Yp into the run's one output buffer.
type TCResult struct {
	// A = Y(1)·C(1)ᵀ, shape I x R (paper Algorithm 2).
	A *linalg.Matrix
	// Yp is the compact partially symmetric unfolding Y_p(1), I x S_{N-1,R}.
	Yp *linalg.Matrix
	// Cp is the compact core unfolding C_p(1) = Uᵀ·Y_p(1), R x S_{N-1,R}.
	Cp *linalg.Matrix
	// P is the permutation-count vector of the compact columns.
	P []float64
}

// CoreNormSquared returns ||C||_F² of the full core tensor from its compact
// unfolding (CompactNormSquared), used by the objective f = ||X||² - ||C||².
func (t *TCResult) CoreNormSquared() float64 {
	return CompactNormSquared(t.Cp, t.P)
}

// CompactNormSquared returns the squared Frobenius norm of the partially
// symmetric tensor whose compact unfolding is c, Σ p_j·c(i,j)² over rows i
// and columns j: paper Property 3, M = EᵀE = diag(p). The sum runs row by
// row in column order; the bits of every recorded objective depend on it.
func CompactNormSquared(c *linalg.Matrix, p []float64) float64 {
	var s float64
	for i := 0; i < c.Rows; i++ {
		for j, v := range c.Row(i) {
			s += p[j] * v * v
		}
	}
	return s
}

// S3TTMcTC computes paper Algorithm 2 — the optimized CSS-based S³TTMcTC:
//
//  1. Y_p = X ×₋₁ [Uᵀ]            (optimized S³TTMc)
//  2. C_p(1) = Uᵀ·Y_p(1)           (Property 2: layouts match; CoreProduct)
//  3. A = Y_p(1)·diag(p)·C_p(1)ᵀ   (Property 3: M = EᵀE is diagonal; TimesCore)
//
// The extra work beyond S³TTMc is two matrix products of combined cost
// O(I·R·S_{N-1,R}), which Fig. 5(d) shows to be a small additive overhead.
// HOQRI runs the same three stages, one per step of its sweep.
func S3TTMcTC(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*TCResult, error) {
	yp, err := S3TTMcSymProp(x, u, opts)
	if err != nil {
		return nil, err
	}
	r := u.Cols
	cols := int64(yp.Cols)
	extra := memguard.Float64Bytes(cols*int64(r) + int64(x.Dim)*int64(r) + cols)
	if err := opts.Guard.Reserve(extra, "S3TTMcTC core and A"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(extra)

	cp, err := CoreProduct(u, yp, opts)
	if err != nil {
		return nil, err
	}
	p := PermCounts(x.Order-1, r) // diag(M)
	a, err := TimesCore(yp, cp, p, opts)
	if err != nil {
		return nil, err
	}
	return &TCResult{A: a, Yp: yp, Cp: cp, P: p}, nil
}

// CoreProduct is step 2 of Algorithm 2, the core C = Uᵀ·Y, run as plan
// "ttmctc.cp" over C's rows. Y may be the compact Y_p(1), giving C_p(1), or
// a full unfolding Y(1), giving C(1). Every Tucker driver forms its core
// here, except HOQRI-nary, whose kernel forms it on the way.
//
// It reserves nothing: S3TTMcTC charges the guard once for both stages.
func CoreProduct(u, y *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	return linalg.RunMulTN(opts.ExecConfig(), "ttmctc.cp", u, y)
}

// TimesCore is step 3 of Algorithm 2, A = Y_p(1)·diag(p)·C_p(1)ᵀ, run as
// plan "ttmctc.a" over A's rows: the matrix whose orthonormalization is
// HOQRI's next factor. Like CoreProduct it reserves nothing.
func TimesCore(yp, cp *linalg.Matrix, p []float64, opts Options) (*linalg.Matrix, error) {
	return linalg.RunMulNTWeighted(opts.ExecConfig(), "ttmctc.a", yp, cp, p)
}
