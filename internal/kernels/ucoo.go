package kernels

import (
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// S3TTMcUCOO is the UCOO-format baseline of Shivakumar et al. [11]: the
// input is compressed (IOU non-zeros only) but the computation is not —
// every distinct permutation of every non-zero is streamed and its full
// Kronecker chain accumulated into Y(1). No memoization between or within
// permutations: cost O(Σ_l R^l) per *expanded* non-zero, memory only for
// the output and one per-worker Kronecker scratch.
//
// It completes the format-baseline set (SPLATT/CSF, UCOO, CSS, SymProp)
// and shows where each of CSS's two memoizations pays off.
func S3TTMcUCOO(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	r := u.Cols
	cols := dense.Pow64(int64(r), x.Order-1)
	yBytes := memguard.Float64Bytes(int64(x.Dim) * cols)
	wsBytes := memguard.Float64Bytes(cols) * int64(opts.workers())
	if err := opts.Guard.Reserve(yBytes, "UCOO full Y(1)"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(yBytes)
	if err := opts.Guard.Reserve(wsBytes, "UCOO kron scratch"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)

	y := linalg.NewMatrix(x.Dim, int(cols))
	if x.NNZ() == 0 {
		return y, nil
	}
	// Every expanded permutation of a non-zero emits its Kronecker chain
	// into the row of its first index, which ranges over the tuple's
	// distinct values — the lattice kernels' emission pattern, so the same
	// schedule (bin by leading row, spill the rest) applies.
	err := scatter(x, opts, y, ownerPass{
		name: "ucoo.owner",
		emitter: func(_ *exec.Worker, s *sink) func(int) error {
			kron := make([]float64, y.Cols)
			perm := make([]int32, x.Order)
			each := func(idx []int32, val float64) {
				kronRows(u, idx[1:], kron)
				s.add(int(idx[0]), val, kron)
			}
			return func(k int) error {
				x.ForEachExpandedOf(k, perm, each)
				return nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := exec.FireOutput("ucoo", y); err != nil {
		return nil, err
	}
	return y, nil
}

// EstimateUCOOBytes returns the UCOO kernel footprint: full Y(1) plus
// per-worker Kronecker scratch.
func EstimateUCOOBytes(x *spsym.Tensor, rank, workers int) int64 {
	cols := dense.Pow64(int64(rank), x.Order-1)
	y := memguard.Float64Bytes(int64(x.Dim) * cols)
	ws := memguard.Float64Bytes(cols) * int64(workers)
	return satBytes(y, ws)
}
