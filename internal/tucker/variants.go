package tucker

import (
	"time"

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
	if err := opts.normalize(x); err != nil {
		return nil, err
	}
	res := &Result{NormX2: x.NormSquared()}
	var scheds kernels.ScheduleCache
	epool, closePool := opts.execPool()
	defer closePool()
	eng, closeEng := opts.shardEngines()
	defer closeEng()
	kopts := kernels.Options{Ctx: opts.Ctx, Guard: opts.Guard, Workers: opts.Workers,
		Schedules: &scheds, Exec: epool}
	if eng != nil {
		kopts.Backend = eng
	}
	rs := newRun("hooi-css", x, &opts, res, &kopts)
	mulTN := func(a, b *linalg.Matrix) (*linalg.Matrix, error) {
		if kopts.Backend != nil {
			return eng.MulTN(a, b, kopts)
		}
		return linalg.MulTN(a, b), nil
	}

	t0 := time.Now()
	u, err := initFactor(x, &opts)
	if err != nil {
		return nil, err
	}
	res.Phases.Other += time.Since(t0)

	r := opts.Rank
	p := kernels.PermCounts(x.Order-1, r)
	res.P = p

	for it := 0; it < opts.MaxIters; it++ {
		if err := rs.beginIteration(it, u); err != nil {
			return nil, err
		}
		t := time.Now()
		yFull, err := kernels.S3TTMcCSS(x, u, kopts)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.TTMc += time.Since(t)

		t = time.Now()
		u, err = leadingLeftSingular(yFull, r, opts.Guard, mulTN)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.SVD += time.Since(t)

		t = time.Now()
		cFull, err := mulTN(u, yFull)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		var coreNorm2 float64
		for _, v := range cFull.Data {
			coreNorm2 += v * v
		}
		// Keep the compact core for Result consistency.
		res.CoreP = compactFromFull(cFull, x.Order, r)
		recordObjective(res, res.NormX2, coreNorm2)
		res.Phases.Core += time.Since(t)

		res.Iters = it + 1
		// nil factor: the ablation drivers do not support checkpointing, so
		// endIteration only records the trace event.
		if err := rs.endIteration(it, nil); err != nil {
			return nil, err
		}
		if converged(res, opts.Tol) {
			res.Converged = true
			break
		}
	}
	rs.finish()
	res.U = u
	return res, nil
}

// compactFromFull folds a full unfolding (rows x r^{order-1}) into the
// compact partially symmetric layout (rows x S_{order-1,r}) by sampling one
// representative per IOU column. Inverse of kernels.ExpandCompactColumns
// for genuinely symmetric inputs.
func compactFromFull(full *linalg.Matrix, order, r int) *linalg.Matrix {
	symOrder := order - 1
	out := linalg.NewMatrix(full.Rows, int(dense.Count(symOrder, r)))
	// A compact column (j1<=...<=j_{N-1}) maps to the full column with the
	// same digits in order (slowest first).
	cols := make([]int, out.Cols)
	idxToFull := func(idx []int) int {
		lin := 0
		for _, d := range idx {
			lin = lin*r + d
		}
		return lin
	}
	i := 0
	dense.ForEachIOU(symOrder, r, func(idx []int) {
		cols[i] = idxToFull(idx)
		i++
	})
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
func HOQRINary(x *spsym.Tensor, opts Options) (*Result, error) {
	if err := opts.normalize(x); err != nil {
		return nil, err
	}
	res := &Result{NormX2: x.NormSquared()}
	var scheds kernels.ScheduleCache
	epool, closePool := opts.execPool()
	defer closePool()
	kopts := kernels.Options{Ctx: opts.Ctx, Guard: opts.Guard, Workers: opts.Workers,
		Schedules: &scheds, Exec: epool}
	rs := newRun("hoqri-nary", x, &opts, res, &kopts)

	t0 := time.Now()
	u, err := initFactor(x, &opts)
	if err != nil {
		return nil, err
	}
	res.Phases.Other += time.Since(t0)

	r := opts.Rank
	for it := 0; it < opts.MaxIters; it++ {
		if err := rs.beginIteration(it, u); err != nil {
			return nil, err
		}
		t := time.Now()
		nary, err := kernels.NaryTTMcTC(x, u, kopts)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.TTMc += time.Since(t)

		t = time.Now()
		res.CoreP = compactFromFull(nary.CoreFull, x.Order, r)
		res.P = kernels.PermCounts(x.Order-1, r)
		recordObjective(res, res.NormX2, nary.CoreNormSquared())
		res.Phases.Core += time.Since(t)

		t = time.Now()
		u = linalg.Orthonormalize(nary.A)
		res.Phases.QR += time.Since(t)

		res.Iters = it + 1
		if err := rs.endIteration(it, nil); err != nil {
			return nil, err
		}
		if converged(res, opts.Tol) {
			res.Converged = true
			break
		}
	}
	// Final core against the final factor.
	if err := rs.beginIteration(res.Iters, u); err != nil {
		return nil, err
	}
	t := time.Now()
	nary, err := kernels.NaryTTMcTC(x, u, kopts)
	if err != nil {
		return nil, rs.wrapKernelErr(u, err)
	}
	res.CoreP = compactFromFull(nary.CoreFull, x.Order, r)
	res.Phases.Core += time.Since(t)
	rs.finish()
	res.U = u
	return res, nil
}
