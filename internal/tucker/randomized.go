package tucker

import (
	"time"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/kernels"
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
	if err := opts.normalize(x); err != nil {
		return nil, err
	}
	res := &Result{NormX2: x.NormSquared()}
	var cache css.Cache
	var pool kernels.WorkspacePool
	var scheds kernels.ScheduleCache
	epool, closePool := opts.execPool()
	defer closePool()
	eng, closeEng := opts.shardEngines()
	defer closeEng()
	kopts := kernels.Options{Ctx: opts.Ctx, Guard: opts.Guard, Workers: opts.Workers,
		PlanCache: &cache, Pool: &pool, Schedules: &scheds, Exec: epool}
	if eng != nil {
		kopts.Backend = eng
	}
	rs := newRun("hooi-randomized", x, &opts, res, &kopts)
	mulTN := func(a, b *linalg.Matrix) (*linalg.Matrix, error) {
		if kopts.Backend != nil {
			return eng.MulTN(a, b, kopts)
		}
		return linalg.MulTN(a, b), nil
	}

	t0 := time.Now()
	u, startIt, err := rs.start(func() (*linalg.Matrix, error) { return initFactor(x, &opts) })
	if err != nil {
		return nil, err
	}
	res.Phases.Other += time.Since(t0)

	r := opts.Rank
	p := kernels.PermCounts(x.Order-1, r)
	res.P = p

	for it := startIt; it < opts.MaxIters; it++ {
		if err := rs.beginIteration(it, u); err != nil {
			return nil, err
		}
		t := time.Now()
		yp, err := kernels.S3TTMcSymProp(x, u, kopts)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.TTMc += time.Since(t)

		t = time.Now()
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
		// A handful of power sweeps suffices per ALS iteration: the factor
		// is refined again next sweep anyway.
		_, u, err = linalg.SubspaceIteration(op, x.Dim, r, 8, opts.Seed+int64(it))
		if err != nil {
			return nil, err
		}
		if u, err = rs.healthyFactor(it, u); err != nil {
			return nil, err
		}
		res.Phases.SVD += time.Since(t)

		t = time.Now()
		cp, err := mulTN(u, yp)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.CoreP = cp
		coreNorm2 := weightedNorm2(res.CoreP, p)
		recordObjective(res, res.NormX2, coreNorm2)
		rs.observeObjective(it)
		res.Phases.Core += time.Since(t)

		res.Iters = it + 1
		if err := rs.endIteration(it, u); err != nil {
			return nil, err
		}
		if converged(res, opts.Tol) {
			res.Converged = true
			break
		}
		if opts.OnIteration != nil && !opts.OnIteration(res.Iters, res.RelError[len(res.RelError)-1]) {
			break
		}
	}
	if res.CoreP == nil {
		// Resumed at or past MaxIters: rebuild the core for the restored
		// factor.
		yp, err := kernels.S3TTMcSymProp(x, u, kopts)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		if res.CoreP, err = mulTN(u, yp); err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
	}
	rs.finish()
	res.U = u
	return res, nil
}
