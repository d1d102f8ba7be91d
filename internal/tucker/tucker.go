// Package tucker implements sparse symmetric Tucker decomposition on top of
// the SymProp kernels: the HOOI (paper Algorithm 3) and HOQRI (paper
// Algorithm 4) drivers, HOSVD and random initialization, the Tucker
// objective f = ||X||² − ||C||², and per-phase timing used by the
// performance-breakdown experiment (paper Fig. 8).
package tucker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/shard"
	"github.com/symprop/symprop/internal/spsym"
)

// DefaultCheckpointEvery is the snapshot period normalize applies when
// CheckpointEvery is unset (<= 0). It is the single source of truth the
// symprop.Options and CLI documentation refer to; TestCheckpointEveryDefault
// pins it so doc drift fails loudly.
const DefaultCheckpointEvery = 10

// Init selects the factor-matrix initialization strategy.
type Init int

const (
	// InitRandom starts from a random orthonormal matrix (paper §V; used
	// when HOSVD cannot fit, footnote 5).
	InitRandom Init = iota
	// InitHOSVD starts from the R leading left singular vectors of the
	// mode-1 unfolding X(1), computed via the sparse Gram matrix.
	InitHOSVD
)

// Options configures a decomposition run.
type Options struct {
	// Rank is the Tucker rank R (columns of U); required, in [1, Dim].
	Rank int
	// MaxIters bounds the iteration count (default 100, the paper's Fig. 7
	// setting).
	MaxIters int
	// Tol stops iterating when the relative objective improvement drops
	// below it (default 0: run all MaxIters, matching the paper's
	// fixed-iteration timing runs).
	Tol float64
	// Init selects the starting factor.
	Init Init
	// Seed drives random initialization.
	Seed int64
	// U0 overrides initialization with a caller-provided I x R orthonormal
	// matrix (e.g. the best of several random restarts).
	U0 *linalg.Matrix
	// Guard bounds memory; nil disables the budget.
	Guard *memguard.Guard
	// Workers is the kernel goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Shards, when > 1, runs every S³TTMc call — and the Gram-side products
	// consuming its output — on that many isolated shard engines
	// (internal/shard) behind the kernels.Backend seam, each engine with its
	// own worker pool and caches. The sharded result is bitwise identical to
	// the single-engine path for every shard count, so Shards — unlike
	// Workers — does not enter the checkpoint fingerprint: a snapshot may be
	// resumed under any shard count. HOQRINary's n-ary kernel predates the
	// Backend seam and ignores Shards. See docs/SHARDING.md.
	Shards int
	// OnIteration, when non-nil, is invoked after every sweep with the
	// 1-based iteration number and the current relative error; returning
	// false stops the run early (Result.Converged stays false).
	OnIteration func(iter int, relErr float64) bool
	// Ctx, when non-nil, cancels the run cooperatively: the drivers check
	// it at every iteration boundary and the kernels poll it inside their
	// worker loops. A canceled run returns a *CanceledError (matching
	// ErrCanceled and the context's cause) carrying the partial Result,
	// after writing a final snapshot when checkpointing is enabled.
	Ctx context.Context
	// CheckpointPath, when non-empty, enables periodic atomic snapshots of
	// the iteration state (see internal/checkpoint). A run resumed from the
	// snapshot reproduces the uninterrupted run's trace bit-for-bit.
	CheckpointPath string
	// CheckpointEvery is the snapshot period in iterations; any value <= 0
	// (including the zero value) is normalized to DefaultCheckpointEvery.
	// It only has an effect when CheckpointPath is set.
	CheckpointEvery int
	// Resume, when non-nil, restores a snapshot instead of initializing:
	// the run continues from the stored iteration with the stored factor
	// and traces. The snapshot's algorithm and fingerprint must match this
	// run (checkpoint.ErrMismatch otherwise).
	Resume *checkpoint.State
	// Pool is the persistent execution-engine worker pool every kernel
	// plan of the run is dispatched on. nil (the default) makes the driver
	// create one sized to the effective worker count and close it when the
	// run returns; callers running several decompositions back to back can
	// share one pool across runs by setting it. Ownership contract: a
	// caller-provided pool is borrowed — the driver never closes it, the
	// caller owns its Close (which is idempotent and nil-safe).
	Pool *exec.Pool
	// Metrics, when non-nil, is the observability collector every kernel
	// plan of the run records into (see internal/obs). nil makes the
	// driver use a private collector; either way the aggregated per-plan
	// counters land in Result.PlanMetrics. Setting it is useful to share
	// one collector across runs or to export it via obs.PublishExpvar.
	Metrics *obs.Metrics
	// TraceSink, when non-nil, receives every iteration TraceEvent as it
	// is produced (e.g. an obs.JSONLSink streaming to disk), in addition
	// to the events accumulating in Result.Trace. Sink errors are recorded
	// as health events, never failing the run.
	TraceSink obs.TraceSink
}

// execPool returns the run's engine pool and its cleanup. A caller-provided
// pool is used as-is (left open: the caller owns it); otherwise a fresh
// pool sized to the effective worker count is created and the returned
// cleanup closes it.
func (o *Options) execPool() (*exec.Pool, func()) {
	if o.Pool != nil {
		return o.Pool, func() {}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := exec.NewPool(workers)
	return p, p.Close
}

// shardEngines returns the run's sharded backend (nil when Shards <= 1,
// the single-engine path) and its cleanup. The driver installs the result
// into kernels.Options.Backend; degrade() uninstalls it, so every sharded
// consumer must check Backend, not the engine handle.
func (o *Options) shardEngines() (*shard.Engines, func()) {
	if o.Shards <= 1 {
		return nil, func() {}
	}
	e := shard.New(o.Shards, o.Workers)
	return e, e.Close
}

func (o *Options) normalize(x *spsym.Tensor) error {
	if o.Rank < 1 || o.Rank > x.Dim {
		return fmt.Errorf("tucker: rank %d out of range [1,%d]", o.Rank, x.Dim)
	}
	if x.Order < 2 {
		return fmt.Errorf("tucker: order %d tensor; need order >= 2", x.Order)
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.U0 != nil && (o.U0.Rows != x.Dim || o.U0.Cols != o.Rank) {
		return fmt.Errorf("tucker: U0 is %dx%d, want %dx%d", o.U0.Rows, o.U0.Cols, x.Dim, o.Rank)
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return nil
}

// Phases records wall time per algorithm phase, the breakdown of Fig. 8.
type Phases struct {
	TTMc  time.Duration // S³TTMc kernel
	TC    time.Duration // times-core matrix products (HOQRI only)
	SVD   time.Duration // SVD / Gram + eigendecomposition (HOOI only)
	QR    time.Duration // QR orthogonalization (HOQRI only)
	Core  time.Duration // core formation and objective
	Other time.Duration // initialization and bookkeeping
}

// Total returns the summed phase time.
func (p Phases) Total() time.Duration {
	return p.TTMc + p.TC + p.SVD + p.QR + p.Core + p.Other
}

// Result is a completed decomposition.
type Result struct {
	// U is the orthonormal factor, I x R.
	U *linalg.Matrix
	// CoreP is the core tensor's compact partially symmetric unfolding
	// C_p(1), R x S_{N-1,R} (paper §IV-A).
	CoreP *linalg.Matrix
	// P is the permutation-count vector matching CoreP's columns.
	P []float64
	// NormX2 is ||X||² of the input.
	NormX2 float64
	// Objective traces f = ||X||² − ||C||² per iteration.
	Objective []float64
	// RelError traces sqrt(max(f,0))/||X|| per iteration (Fig. 9's y-axis).
	RelError []float64
	// Iters is the number of completed iterations.
	Iters int
	// Converged reports whether Tol was reached before MaxIters.
	Converged bool
	// Phases is the wall-time breakdown.
	Phases Phases
	// Health reports what the numeric-health sentinels observed
	// (resilience.go); all-zero for a clean run.
	Health Health
	// Trace holds one observability event per completed sweep: convergence
	// state, wall time, per-plan engine-counter deltas, health events, and
	// checkpoint writes. A resumed run's trace continues the interrupted
	// one's (restored from the snapshot). Unlike Objective/RelError it
	// carries wall-clock timings, so it is informational — excluded from
	// the bit-identity resume guarantee.
	Trace []obs.TraceEvent
	// PlanMetrics aggregates the engine's per-plan counters over the whole
	// run (invocations, items, busy/span time, load imbalance), sorted by
	// plan name.
	PlanMetrics []obs.PlanMetrics
}

// FinalRelError returns the last entry of the relative-error trace.
func (r *Result) FinalRelError() float64 {
	if len(r.RelError) == 0 {
		return math.NaN()
	}
	return r.RelError[len(r.RelError)-1]
}

// CoreNormSquared returns ||C||² from the compact core.
func (r *Result) CoreNormSquared() float64 {
	var s float64
	for i := 0; i < r.CoreP.Rows; i++ {
		row := r.CoreP.Row(i)
		for j, v := range row {
			s += r.P[j] * v * v
		}
	}
	return s
}

func initFactor(x *spsym.Tensor, opts *Options) (*linalg.Matrix, error) {
	if opts.U0 != nil {
		return opts.U0.Clone(), nil
	}
	switch opts.Init {
	case InitHOSVD:
		return HOSVDInit(x, opts.Rank, opts.Guard)
	default:
		rng := rand.New(rand.NewSource(opts.Seed))
		return linalg.RandomOrthonormal(x.Dim, opts.Rank, rng), nil
	}
}

func recordObjective(res *Result, normX2, coreNorm2 float64) {
	f := normX2 - coreNorm2
	res.Objective = append(res.Objective, f)
	rel := 0.0
	if normX2 > 0 {
		rel = math.Sqrt(math.Max(f, 0) / normX2)
	}
	res.RelError = append(res.RelError, rel)
}

func converged(res *Result, tol float64) bool {
	n := len(res.Objective)
	if tol <= 0 || n < 2 {
		return false
	}
	prev, cur := res.Objective[n-2], res.Objective[n-1]
	return math.Abs(prev-cur) <= tol*math.Max(math.Abs(prev), 1e-300)
}

// HOOI runs the Higher-Order Orthogonal Iteration (paper Algorithm 3):
// each sweep computes the SymProp S³TTMc, takes the R leading left singular
// vectors of the unfolded Y(1) as the new factor, and forms the core.
//
// Faithful to the paper's implementation, the SVD step materializes the
// full I x R^{N-1} unfolding (that is what a LAPACK-backed SVD consumes),
// which is exactly what makes HOOI run out of memory on large problems
// (paper §VI-C.1) — the memory guard reproduces those OOMs.
func HOOI(x *spsym.Tensor, opts Options) (*Result, error) {
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
	rs := newRun("hooi", x, &opts, res, &kopts)
	ttmc := func(f *linalg.Matrix) (*linalg.Matrix, error) {
		return kernels.S3TTMcSymProp(x, f, kopts)
	}
	// Sharded Gram-side products when the backend is installed; degrade()
	// clears kopts.Backend, falling back to the serial linalg call.
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
		yp, uUsed, err := rs.healthyTTMc(it, u, ttmc)
		if err != nil {
			return nil, err
		}
		u = uUsed
		res.Phases.TTMc += time.Since(t)

		t = time.Now()
		uNew, err := leadingLeftSingular(yp, x.Order, r, opts.Guard, mulTN)
		if err != nil {
			// No degradation retry here: the dominant reservation is the
			// full I x R^{N-1} unfolding, which no worker count shrinks.
			return nil, rs.wrapKernelErr(u, err)
		}
		if u, err = rs.healthyFactor(it, uNew); err != nil {
			return nil, err
		}
		res.Phases.SVD += time.Since(t)

		t = time.Now()
		cp, err := mulTN(u, yp) // C_p(1) = Uᵀ·Y_p(1)
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
		// Resumed at or past MaxIters: the loop never ran, so rebuild the
		// core for the restored factor.
		yp, uUsed, err := rs.healthyTTMc(res.Iters, u, ttmc)
		if err != nil {
			return nil, err
		}
		u = uUsed
		if res.CoreP, err = mulTN(u, yp); err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
	}
	rs.finish()
	res.U = u
	return res, nil
}

// HOQRI runs the Higher-Order QR Iteration (paper Algorithm 4) with the
// SymProp S³TTMcTC kernel: A = Y(1)·C(1)ᵀ computed entirely on compact
// layouts, then QR instead of SVD. No object larger than I x S_{N-1,R} is
// ever materialized, which is what lets HOQRI scale to the large datasets
// where HOOI dies (paper Fig. 7).
func HOQRI(x *spsym.Tensor, opts Options) (*Result, error) {
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
	rs := newRun("hoqri", x, &opts, res, &kopts)
	ttmc := func(f *linalg.Matrix) (*linalg.Matrix, error) {
		return kernels.S3TTMcSymProp(x, f, kopts)
	}
	mulTN := func(a, b *linalg.Matrix) (*linalg.Matrix, error) {
		if kopts.Backend != nil {
			return eng.MulTN(a, b, kopts)
		}
		return linalg.MulTN(a, b), nil
	}
	mulNTWeighted := func(a, b *linalg.Matrix, w []float64) (*linalg.Matrix, error) {
		if kopts.Backend != nil {
			return eng.MulNTWeighted(a, b, w, kopts)
		}
		return linalg.MulNTWeighted(a, b, w), nil
	}

	t0 := time.Now()
	u, startIt, err := rs.start(func() (*linalg.Matrix, error) { return initFactor(x, &opts) })
	if err != nil {
		return nil, err
	}
	res.Phases.Other += time.Since(t0)

	p := kernels.PermCounts(x.Order-1, opts.Rank)
	res.P = p
	// coreConsistent tracks whether res.CoreP matches the current u. The
	// core is recorded from the pre-update factor each sweep, so a run that
	// stops before the QR update (convergence, OnIteration) already holds a
	// consistent core and skips the final kernel pass entirely.
	coreConsistent := false

	for it := startIt; it < opts.MaxIters; it++ {
		if err := rs.beginIteration(it, u); err != nil {
			return nil, err
		}
		t := time.Now()
		yp, uUsed, err := rs.healthyTTMc(it, u, ttmc)
		if err != nil {
			return nil, err
		}
		u = uUsed
		res.Phases.TTMc += time.Since(t)

		// Times-core, first half: C_p = Uᵀ·Y_p (Algorithm 2).
		t = time.Now()
		cp, err := mulTN(u, yp)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.TC += time.Since(t)

		t = time.Now()
		res.CoreP = cp
		coreNorm2 := weightedNorm2(cp, p)
		recordObjective(res, res.NormX2, coreNorm2)
		rs.observeObjective(it)
		res.Phases.Core += time.Since(t)

		res.Iters = it + 1
		if converged(res, opts.Tol) {
			res.Converged = true
			coreConsistent = true
			if err := rs.endIteration(it, nil); err != nil {
				return nil, err
			}
			break
		}
		if opts.OnIteration != nil && !opts.OnIteration(res.Iters, res.RelError[len(res.RelError)-1]) {
			coreConsistent = true
			if err := rs.endIteration(it, nil); err != nil {
				return nil, err
			}
			break
		}

		// Times-core, second half: A = Y_p·diag(p)·C_pᵀ, then QR.
		t = time.Now()
		a, err := mulNTWeighted(yp, cp, p)
		if err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.TC += time.Since(t)

		t = time.Now()
		if u, err = rs.healthyFactor(it, linalg.Orthonormalize(a)); err != nil {
			return nil, err
		}
		res.Phases.QR += time.Since(t)

		if err := rs.endIteration(it, u); err != nil {
			return nil, err
		}
	}
	if !coreConsistent {
		// The loop exhausted MaxIters (or resumed past them), so u was
		// updated after the last recorded core: recompute against the final
		// factor, honoring cancellation like any other kernel pass.
		if err := rs.beginIteration(res.Iters, u); err != nil {
			return nil, err
		}
		t := time.Now()
		yp, uUsed, err := rs.healthyTTMc(res.Iters, u, ttmc)
		if err != nil {
			return nil, err
		}
		u = uUsed
		if res.CoreP, err = mulTN(u, yp); err != nil {
			return nil, rs.wrapKernelErr(u, err)
		}
		res.Phases.Core += time.Since(t)
	}
	rs.finish()
	res.U = u
	return res, nil
}

func weightedNorm2(m *linalg.Matrix, w []float64) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			s += w[j] * v * v
		}
	}
	return s
}

// leadingLeftSingular returns the R leading left singular vectors of the
// full unfolding Y(1), expanded from its compact form. The Gram matrix is
// taken on the smaller side, giving LAPACK's
// O(I·R^{N-1}·min(I, R^{N-1})) complexity and the full I x R^{N-1}
// memory footprint of the paper's HOOI. mulTN is the driver's (possibly
// sharded) Aᵀ·B product; the rows <= cols branch computes an I x I Gram
// with MulNT, which has no banded form and stays single-engine — the
// serial call is bitwise what the sharded one would produce anyway.
func leadingLeftSingular(yp *linalg.Matrix, order, r int, guard *memguard.Guard,
	mulTN func(a, b *linalg.Matrix) (*linalg.Matrix, error)) (*linalg.Matrix, error) {
	rows := int64(yp.Rows)
	cols := dense.Pow64(int64(r), order-1)
	fullBytes := memguard.Float64Bytes(rows * cols)
	if err := guard.Reserve(fullBytes, "HOOI full Y(1) for SVD"); err != nil {
		return nil, err
	}
	defer guard.Release(fullBytes)
	yFull := kernels.ExpandCompactColumns(yp, order, r)

	small := rows
	if cols < small {
		small = cols
	}
	gramBytes := memguard.Float64Bytes(small * small)
	if err := guard.Reserve(gramBytes, "HOOI Gram matrix"); err != nil {
		return nil, err
	}
	defer guard.Release(gramBytes)

	if rows <= cols {
		g := linalg.MulNT(yFull, yFull) // I x I
		return linalg.TopEigenvectors(g, r)
	}
	// Column-side Gram: eig gives right singular vectors; map back through Y.
	g, err := mulTN(yFull, yFull) // cols x cols
	if err != nil {
		return nil, err
	}
	values, vectors, err := linalg.SymEig(g)
	if err != nil {
		return nil, err
	}
	u := linalg.NewMatrix(yp.Rows, r)
	for c := 0; c < r; c++ {
		sigma := math.Sqrt(math.Max(values[c], 0))
		for i := 0; i < yp.Rows; i++ {
			var s float64
			row := yFull.Row(i)
			for k := 0; k < yFull.Cols; k++ {
				s += row[k] * vectors.At(k, c)
			}
			if sigma > 1e-300 {
				u.Set(i, c, s/sigma)
			}
		}
	}
	// Guard against rank deficiency: re-orthonormalize.
	return linalg.Orthonormalize(u), nil
}

// ErrNotConverged is reserved for callers that require convergence.
var ErrNotConverged = errors.New("tucker: did not converge within MaxIters")
