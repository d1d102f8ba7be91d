package kernels

import (
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// S3MTTKRP computes the symmetric matricized-tensor-times-Khatri-Rao
// product behind symmetric CP-ALS (internal/cpd):
// M(k, r) = Σ_{full non-zeros with i1=k} x(i)·Π_{a=2..N} U(i_a, r).
// Because the elementwise product is permutation-invariant, each IOU
// non-zero contributes, for each of its distinct values v,
//
//	M(v, :) += x · perm(i∖v) · Π_{w ∈ i∖v} U(w, :)^{mult(w)}
//
// — O(N·R) per non-zero, no intermediate tensors (symmetry propagation in
// its purest form). The emissions run on the owner-computes loop of the
// S³TTMc kernels as plan mttkrp.owner, so M's bits are fixed by (tensor,
// U, worker count).
func S3MTTKRP(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	r := u.Cols
	mBytes := memguard.Float64Bytes(int64(x.Dim) * int64(r))
	if err := opts.Guard.Reserve(mBytes, "S³MTTKRP output M"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(mBytes)

	m := linalg.NewMatrix(x.Dim, r)
	err := scatter(x, opts, m, ownerPass{
		name: "mttkrp.owner",
		emitter: func(_ *exec.Worker, s *sink) func(int) error {
			prod := make([]float64, r)
			rest := make([]int, 0, x.Order)
			return func(k int) error {
				tuple := x.IndexAt(k)
				val := x.Values[k]
				for i, v := range tuple {
					if i > 0 && v == tuple[i-1] {
						continue // same distinct value: same contribution target
					}
					// Build i∖(one copy of v).
					rest = rest[:0]
					for j, w := range tuple {
						if j != i {
							rest = append(rest, int(w))
						}
					}
					w := val * float64(dense.PermutationCount(rest))
					for c := range prod {
						prod[c] = w
					}
					for _, wv := range rest {
						for c, uv := range u.Row(wv) {
							prod[c] *= uv
						}
					}
					s.add(int(v), 1, prod)
				}
				return nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := exec.FireOutput("mttkrp", m); err != nil {
		return nil, err
	}
	return m, nil
}
