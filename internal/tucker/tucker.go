// Package tucker implements sparse symmetric Tucker decomposition on top of
// the SymProp kernels: the HOOI (paper Algorithm 3) and HOQRI (paper
// Algorithm 4) drivers, HOSVD and random initialization, the Tucker
// objective f = ||X||² − ||C||², and per-phase timing used by the
// performance-breakdown experiment (paper Fig. 8).
package tucker

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
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
	// Deprecated: ignored. Every run is one owner-computes engine of
	// Workers goroutines. Shards does not enter the checkpoint
	// fingerprint, so a snapshot written under any value resumes.
	Shards int
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

// CoreNormSquared returns ||C||² from the compact core
// (kernels.CompactNormSquared).
func (r *Result) CoreNormSquared() float64 {
	return kernels.CompactNormSquared(r.CoreP, r.P)
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
	return run(x, opts, step{
		algo:  "hooi",
		chain: (*env).symProp,
		svd:   hooiSVD,
		core:  (*env).core, // C_p(1) = Uᵀ·Y_p(1)
	})
}

// hooiSVD is HOOI's factor update: the leading left singular vectors of
// the full unfolding Y(1), expanded from yp for the step and dropped after
// it.
func hooiSVD(e *env, _ int, yp *linalg.Matrix) (*linalg.Matrix, error) {
	r := e.opts.Rank
	fullBytes := memguard.Float64Bytes(int64(yp.Rows) * dense.Pow64(int64(r), e.x.Order-1))
	if err := e.opts.Guard.Reserve(fullBytes, "HOOI full Y(1) for SVD"); err != nil {
		// No degradation retry here: the dominant reservation is the full
		// unfolding, which no worker count shrinks.
		return nil, err
	}
	defer e.opts.Guard.Release(fullBytes)
	yFull, err := kernels.SVDExpand(yp, e.x.Order, r, e.kopts)
	if err != nil {
		return nil, err
	}
	return leadingLeftSingular(e, yFull)
}

// HOQRI runs the Higher-Order QR Iteration (paper Algorithm 4) with the
// SymProp S³TTMcTC kernel: A = Y(1)·C(1)ᵀ computed entirely on compact
// layouts, then QR instead of SVD. No object larger than I x S_{N-1,R} is
// ever materialized, which is what lets HOQRI scale to the large datasets
// where HOOI dies (paper Fig. 7). A sweep runs the three stages of
// kernels.S3TTMcTC, the kernel Fig. 4 times, with the objective between the
// second and the third.
func HOQRI(x *spsym.Tensor, opts Options) (*Result, error) {
	return run(x, opts, step{
		algo:  "hoqri",
		chain: (*env).symProp,
		core:  (*env).core, // C_p = Uᵀ·Y_p
		qr: func(e *env, yp, cp *linalg.Matrix) (*linalg.Matrix, error) {
			return kernels.TimesCore(yp, cp, e.p, e.kopts) // A = Y_p·diag(p)·C_pᵀ
		},
	})
}

// leadingLeftSingular returns the e.opts.Rank leading left singular
// vectors of the full unfolding yFull, for HOOI and HOOI-CSS alike. The
// Gram matrix is taken on the smaller side (kernels.SVDGram, plan
// svd.gram), giving LAPACK's O(I·R^{N-1}·min(I, R^{N-1})) complexity: the
// I x I Y·Yᵀ on the row side (I <= cols), the cols x cols Yᵀ·Y on the
// column side. The eigensolver runs serially.
func leadingLeftSingular(e *env, yFull *linalg.Matrix) (*linalg.Matrix, error) {
	r := e.opts.Rank
	small := int64(min(yFull.Rows, yFull.Cols))
	gramBytes := memguard.Float64Bytes(small * small)
	if err := e.opts.Guard.Reserve(gramBytes, "HOOI Gram matrix"); err != nil {
		return nil, err
	}
	defer e.opts.Guard.Release(gramBytes)

	g, err := kernels.SVDGram(yFull, e.kopts)
	if err != nil {
		return nil, err
	}
	if yFull.Rows <= yFull.Cols {
		return linalg.TopEigenvectors(g, r) // I x I
	}
	// Column-side Gram: eig gives right singular vectors; map back through Y.
	values, vectors, err := linalg.SymEig(g) // cols x cols
	if err != nil {
		return nil, err
	}
	u := linalg.NewMatrix(yFull.Rows, r)
	for c := 0; c < r; c++ {
		sigma := math.Sqrt(math.Max(values[c], 0))
		if !(sigma > 1e-300) {
			continue // a null (or NaN) direction stays zero for Orthonormalize
		}
		for i := 0; i < yFull.Rows; i++ {
			var s float64
			row := yFull.Row(i)
			for k := 0; k < yFull.Cols; k++ {
				s += row[k] * vectors.At(k, c)
			}
			u.Set(i, c, s/sigma)
		}
	}
	// Guard against rank deficiency: re-orthonormalize.
	return linalg.Orthonormalize(u), nil
}
