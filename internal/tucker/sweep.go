package tucker

// This file holds the one sweep loop behind every driver. A driver supplies
// a step — its kernel pass and its factor update — and run owns the rest:
// setup, resume, the loop, the health sentinels (resilience.go),
// checkpoints, traces, phase timing, and the final-core rebuild.

import (
	"time"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// env is what run sets up once per decomposition and hands to every step
// function. The kernel options are shared by every pass; degrade() mutates
// them, so steps read them at call time.
type env struct {
	x     *spsym.Tensor
	opts  *Options
	kopts kernels.Options
	p     []float64 // permutation counts of the compact core's columns
	// y is the run's one S³TTMc output, nil until the first chain call:
	// every sweep and the final-core rebuild write into it, so a sweep's
	// chain output is dead once its svd, core and qr steps have returned.
	// Nothing the run returns or saves refers to it.
	y *linalg.Matrix
}

// core is Algorithm 2's core stage C = Uᵀ·Y (plan ttmctc.cp), the core
// function of every step but HOQRI-nary's.
func (e *env) core(u, y *linalg.Matrix) (*linalg.Matrix, error) {
	return kernels.CoreProduct(u, y, e.kopts)
}

// symProp is the SymProp S³TTMc, the chain of HOOI, HOQRI and randomized
// HOOI: Y_p(1) in the compact I x S_{N-1,R} layout.
func (e *env) symProp(u *linalg.Matrix) (*linalg.Matrix, error) {
	return e.ttmc(u, true)
}

// ttmc runs the SymProp (compact) or CSS S³TTMc into the run's output e.y,
// allocating it on the first call. A failed call leaves e.y partly
// written; the next call overwrites all of it.
func (e *env) ttmc(u *linalg.Matrix, compact bool) (*linalg.Matrix, error) {
	y, err := kernels.S3TTMcInto(e.y, e.x, u, e.kopts, compact)
	if err != nil {
		return nil, err
	}
	e.y = y
	return y, nil
}

// step is one algorithm's part of a sweep. Every sweep computes
// y = chain(u). The HOOI family (svd set) then takes the new factor
// u = svd(y) and forms the core from (u, y). The HOQRI family (qr set)
// forms the core from (u, y), records the objective, and — unless the run
// stops there — orthonormalizes qr(y, core) into the next factor.
type step struct {
	// algo names the algorithm in snapshots and their fingerprint.
	algo string
	// chain is the sweep's kernel pass; the NaN/Inf sentinel scans its
	// output, and the budget retry reruns it.
	chain func(e *env, u *linalg.Matrix) (*linalg.Matrix, error)
	// core forms the core from the factor and the chain output: the
	// compact C_p(1), or the full C(1) when fullCore is set.
	core     func(e *env, u, y *linalg.Matrix) (*linalg.Matrix, error)
	fullCore bool
	// svd (HOOI family) returns sweep it's new factor from y.
	svd func(e *env, it int, y *linalg.Matrix) (*linalg.Matrix, error)
	// qr (HOQRI family) returns the matrix A whose orthonormalization is
	// the next factor, from y and the core product c.
	qr func(e *env, y, c *linalg.Matrix) (*linalg.Matrix, error)
}

// fold returns the compact core C_p(1) of a core product and ||C||².
func (s *step) fold(e *env, c *linalg.Matrix) (*linalg.Matrix, float64) {
	if !s.fullCore {
		return c, kernels.CompactNormSquared(c, e.p)
	}
	var norm2 float64
	for _, v := range c.Data {
		norm2 += v * v
	}
	return compactFromFull(c, e.x.Order, e.opts.Rank), norm2
}

// run is the sweep loop every driver shares, under the full failure policy
// of DESIGN.md §7.
func run(x *spsym.Tensor, opts Options, s step) (*Result, error) {
	if err := opts.normalize(x); err != nil {
		return nil, err
	}
	res := &Result{NormX2: x.NormSquared()}
	var cache css.Cache
	var pool kernels.WorkspacePool
	var scheds kernels.ScheduleCache
	epool, closePool := opts.execPool()
	defer closePool()
	e := &env{x: x, opts: &opts, kopts: kernels.Options{Ctx: opts.Ctx, Guard: opts.Guard,
		Workers: opts.Workers, PlanCache: &cache, Pool: &pool, Schedules: &scheds, Exec: epool}}
	rs := newRun(s.algo, x, &opts, res, &e.kopts)
	chain := func(u *linalg.Matrix) (*linalg.Matrix, error) { return s.chain(e, u) }

	t0 := time.Now()
	u, startIt, err := rs.start(func() (*linalg.Matrix, error) { return initFactor(x, &opts) })
	if err != nil {
		return nil, err
	}
	res.Phases.Other += time.Since(t0)
	e.p = kernels.PermCounts(x.Order-1, opts.Rank)
	res.P = e.p

	// fresh reports whether res.CoreP was formed from the current u.
	fresh := false
	for it := startIt; it < opts.MaxIters; it++ {
		if err := rs.beginIteration(it, u); err != nil {
			return nil, err
		}
		t := time.Now()
		// uRead is the factor this sweep reads: a failure anywhere in the
		// sweep snapshots it, so the resume replays the same sweep.
		y, uRead, err := rs.healthyTTMc(it, u, chain)
		if err != nil {
			return nil, err
		}
		u = uRead
		res.Phases.TTMc += time.Since(t)

		if s.svd != nil {
			t = time.Now()
			uNew, err := s.svd(e, it, y)
			if err != nil {
				return nil, rs.wrapKernelErr(uRead, err)
			}
			if u, err = rs.healthyFactor(it, uNew); err != nil {
				return nil, err
			}
			res.Phases.SVD += time.Since(t)
		}

		// In the HOQRI family the core product is the first half of
		// times-core (Algorithm 2); in the HOOI family it is core formation.
		t = time.Now()
		c, err := s.core(e, u, y)
		if err != nil {
			return nil, rs.wrapKernelErr(uRead, err)
		}
		if s.qr != nil {
			res.Phases.TC += time.Since(t)
			t = time.Now()
		}
		var coreNorm2 float64
		res.CoreP, coreNorm2 = s.fold(e, c)
		recordObjective(res, res.NormX2, coreNorm2)
		rs.observeObjective(it)
		res.Phases.Core += time.Since(t)
		fresh = true

		res.Iters = it + 1
		stop := converged(res, opts.Tol)
		next := u // the factor the next sweep reads, for the snapshot
		if s.qr != nil {
			if stop {
				// Stopping before the QR update leaves no factor to resume from.
				next = nil
			} else {
				t = time.Now()
				a, err := s.qr(e, y, c)
				if err != nil {
					// The sweep ends short of its factor update: take back
					// its objective, so the snapshot replays it from uRead.
					n := len(res.Objective) - 1
					res.Objective, res.RelError, res.Iters = res.Objective[:n], res.RelError[:n], it
					return nil, rs.wrapKernelErr(uRead, err)
				}
				res.Phases.TC += time.Since(t)
				t = time.Now()
				if u, err = rs.healthyFactor(it, linalg.Orthonormalize(a)); err != nil {
					return nil, err
				}
				res.Phases.QR += time.Since(t)
				next, fresh = u, false
			}
		}
		if err := rs.endIteration(it, next); err != nil {
			return nil, err
		}
		if stop {
			res.Converged = true
			break
		}
	}
	if !fresh {
		// The factor moved after the last recorded core, or the run resumed
		// at MaxIters: form the final factor's core, honoring cancellation
		// like any other kernel pass. The whole pass counts as core time.
		if err := rs.beginIteration(res.Iters, u); err != nil {
			return nil, err
		}
		t := time.Now()
		y, uUsed, err := rs.healthyTTMc(res.Iters, u, chain)
		if err != nil {
			return nil, err
		}
		u = uUsed
		c, err := s.core(e, u, y)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.CoreP, _ = s.fold(e, c)
		res.Phases.Core += time.Since(t)
	}
	rs.finish()
	res.U = u
	return res, nil
}
