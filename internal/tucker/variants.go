package tucker

import (
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// This file implements the two non-SymProp driver variants of paper
// Table II, used by the ablation experiments:
//
//   - HOOICSS: HOOI on top of the CSS-baseline S³TTMc (full intermediates) —
//     Table II row 1.
//   - HOQRINary: HOQRI with the original n-ary contraction kernel of [14]
//     (no memoization) — Table II row 3.

// HOOICSS runs HOOI with the prior-art CSS kernel: the full I x R^{N-1}
// unfolding is produced directly and fed to the SVD.
func HOOICSS(x *spsym.Tensor, opts Options) (*Result, error) {
	return run(x, opts, step{
		algo: "hooi-css",
		chain: func(e *env, u *linalg.Matrix) (*linalg.Matrix, error) {
			return e.ttmc(u, false)
		},
		svd: func(e *env, _ int, yFull *linalg.Matrix) (*linalg.Matrix, error) {
			return leadingLeftSingular(e, yFull)
		},
		core:     (*env).core, // the full C(1) = Uᵀ·Y(1)
		fullCore: true,
	})
}

// compactFromFull folds a full unfolding (rows x r^{order-1}) into the
// compact partially symmetric layout (rows x S_{order-1,r}) by sampling one
// representative per IOU column: the first full column
// dense.ExpansionTable maps to it, its ascending-digit tuple. Inverse of
// kernels.ExpandCompactColumns for genuinely symmetric inputs.
func compactFromFull(full *linalg.Matrix, order, r int) *linalg.Matrix {
	out := linalg.NewMatrix(full.Rows, int(dense.Count(order-1, r)))
	cols := make([]int, out.Cols)
	table := dense.ExpansionTable(order-1, r)
	for lin := len(table) - 1; lin >= 0; lin-- {
		cols[table[lin]] = lin
	}
	for row := 0; row < full.Rows; row++ {
		src := full.Row(row)
		dst := out.Row(row)
		for c, fc := range cols {
			dst[c] = src[fc]
		}
	}
	return out
}

// HOQRINary runs HOQRI with the original n-ary contraction kernel [14]
// (Table II row 3): correct, memory-lean, but O(R^N·N!·unnz) per sweep.
// The kernel fuses both times-core halves: its chain output is A itself,
// and the full core it formed on the way is kept for the core step.
func HOQRINary(x *spsym.Tensor, opts Options) (*Result, error) {
	var core *linalg.Matrix // C(1) of the latest n-ary pass
	return run(x, opts, step{
		algo: "hoqri-nary",
		chain: func(e *env, u *linalg.Matrix) (*linalg.Matrix, error) {
			nary, err := kernels.NaryTTMcTC(e.x, u, e.kopts)
			if err != nil {
				return nil, err
			}
			core = nary.CoreFull
			return nary.A, nil
		},
		core:     func(*env, *linalg.Matrix, *linalg.Matrix) (*linalg.Matrix, error) { return core, nil },
		fullCore: true,
		qr:       func(_ *env, a, _ *linalg.Matrix) (*linalg.Matrix, error) { return a, nil },
	})
}
