package tucker

// This file is the drivers' half of the resilient-runtime layer (DESIGN.md
// §7): cancellation with partial results, periodic checkpoints with
// bit-identical resume, numeric-health sentinels (NaN/Inf scans, objective
// regression and stall detection, jittered restarts), and a one-shot
// budget-degradation retry for memory-guard rejections. The kernels' half
// (cooperative cancellation inside worker loops, typed panic recovery)
// lives in internal/kernels/resilience.go.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// The failure-model taxonomy (DESIGN.md §7): every abnormal driver exit is
// classified into exactly one of these sentinels, detectable with errors.Is.
var (
	// ErrCanceled marks a run stopped by its context. The concrete error is
	// a *CanceledError carrying the partial Result and, when checkpointing
	// is enabled, the path of the snapshot written on the way out.
	ErrCanceled = errors.New("tucker: decomposition canceled")
	// ErrBudget marks a run killed by the memory guard after the one-shot
	// degradation retry (one worker, single engine) also failed — or where
	// no retry could help (the HOOI SVD unfolding). The chain always also
	// matches memguard.ErrOutOfMemory.
	ErrBudget = errors.New("tucker: memory budget exhausted")
	// ErrNumericBreakdown marks a run whose iterates stayed non-finite even
	// after a jittered re-orthonormalization restart.
	ErrNumericBreakdown = errors.New("tucker: numeric breakdown")
)

// CanceledError is the concrete cancellation error: errors.Is matches both
// ErrCanceled and the context's cause (via Unwrap).
type CanceledError struct {
	// Iters is the number of fully completed iterations at cancellation.
	Iters int
	// Partial is the partial Result: traces and counters up to Iters. Its
	// U/CoreP fields are unset — resume from the checkpoint instead.
	Partial *Result
	// CheckpointPath is the snapshot written on the way out, or "" when
	// checkpointing was disabled or the write failed (see Health.Events).
	CheckpointPath string
	// Cause is the context's cause (context.Canceled, DeadlineExceeded, or
	// a custom cause).
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("tucker: canceled after %d iterations: %v", e.Iters, e.Cause)
}

// Is reports true for ErrCanceled so errors.Is works without the concrete
// type.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

func (e *CanceledError) Unwrap() error { return e.Cause }

// Health aggregates what the numeric-health sentinels observed during a
// run. All-zero means a clean run.
type Health struct {
	// BudgetRetries counts memory-guard rejections recovered by degrading
	// to one worker on a single engine (at most 1 per run — degradation is
	// sticky).
	BudgetRetries int
	// JitterRestarts counts non-finite factors or kernel outputs recovered
	// by a jittered re-orthonormalization.
	JitterRestarts int
	// Regressions counts iterations whose objective increased beyond
	// round-off — the ALS objective is monotone, so a regression signals
	// numeric trouble.
	Regressions int
	// StallIters counts iterations with no objective movement at all.
	StallIters int
	// Events holds one human-readable line per sentinel observation.
	Events []string
}

// Fingerprint hashes everything a snapshot must agree on to be resumable
// bit-identically: the tensor's shape and contents, the algorithm, and
// every option that affects the arithmetic (rank, effective worker count,
// seed). MaxIters and Tol are deliberately excluded so a
// resumed run may extend or tighten the stopping rule. Shards is excluded
// too: the sharded backend is bitwise identical to single-engine execution
// for every shard count (internal/shard), so a snapshot may be resumed
// under any shard count without breaking trace bit-identity.
func Fingerprint(algo string, x *spsym.Tensor, opts *Options) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(algo))
	word(uint64(x.Order))
	word(uint64(x.Dim))
	word(uint64(x.NNZ()))
	for _, ix := range x.Index {
		word(uint64(uint32(ix)))
	}
	for _, v := range x.Values {
		word(math.Float64bits(v))
	}
	workers := opts.Workers
	if workers <= 0 {
		// The reduction order depends on the effective worker count, so a
		// defaulted count is pinned to this machine's GOMAXPROCS.
		workers = runtime.GOMAXPROCS(0)
	}
	word(uint64(opts.Rank))
	word(uint64(workers))
	// Formerly the accumulation-strategy option, whose default was 0: the
	// constant keeps fingerprints, and so snapshots and spooled jobs,
	// from before its removal resumable.
	word(0)
	word(uint64(opts.Seed))
	return h.Sum64()
}

// runState threads the resilient-runtime policy through one driver run.
type runState struct {
	algo     string
	x        *spsym.Tensor
	opts     *Options
	res      *Result
	kopts    *kernels.Options // shared with the driver; degrade() mutates it
	fp       uint64
	degraded bool

	// Observability (DESIGN.md §9): every run has a collector — the
	// caller's (Options.Metrics) or a private one — installed into kopts so
	// each kernel plan records into it. Per-sweep attribution comes from
	// snapshot deltas taken at iteration boundaries.
	m          *obs.Metrics
	sweepStart time.Time
	sweepBase  []obs.PlanMetrics
	healthBase int
}

func newRun(algo string, x *spsym.Tensor, opts *Options, res *Result, kopts *kernels.Options) *runState {
	m := opts.Metrics
	if m == nil {
		m = obs.New()
	}
	if kopts != nil {
		kopts.Obs = m
	}
	return &runState{algo: algo, x: x, opts: opts, res: res, kopts: kopts,
		fp: Fingerprint(algo, x, opts), m: m}
}

// finish stamps the run's aggregated per-plan counters into the Result; it
// runs on every exit path that hands the Result to the caller (success and
// cancellation).
func (rs *runState) finish() {
	rs.res.PlanMetrics = rs.m.Snapshot()
}

func (rs *runState) ctx() context.Context { return rs.opts.Ctx }

func (rs *runState) event(format string, args ...any) {
	rs.res.Health.Events = append(rs.res.Health.Events, fmt.Sprintf(format, args...))
}

// ctxDone is a nil-safe non-blocking context poll (the tucker twin of the
// kernels' helper).
func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func ctxCause(ctx context.Context) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return ctx.Err()
}

// start applies Resume when set — validating algorithm, fingerprint, and
// factor shape against this run — or falls back to initU. It returns the
// starting factor and the first loop index.
func (rs *runState) start(initU func() (*linalg.Matrix, error)) (*linalg.Matrix, int, error) {
	s := rs.opts.Resume
	if s == nil {
		u, err := initU()
		return u, 0, err
	}
	if s.Algo != rs.algo {
		return nil, 0, fmt.Errorf("tucker: snapshot was written by %q, this run is %q: %w",
			s.Algo, rs.algo, checkpoint.ErrMismatch)
	}
	if s.Fingerprint != rs.fp {
		return nil, 0, fmt.Errorf("tucker: snapshot fingerprint %016x does not match run fingerprint %016x (different tensor, rank, workers, or seed): %w",
			s.Fingerprint, rs.fp, checkpoint.ErrMismatch)
	}
	if s.U == nil || s.U.Rows != rs.x.Dim || s.U.Cols != rs.opts.Rank {
		return nil, 0, fmt.Errorf("tucker: snapshot factor shape does not match %dx%d: %w",
			rs.x.Dim, rs.opts.Rank, checkpoint.ErrMismatch)
	}
	rs.res.Objective = append([]float64(nil), s.Objective...)
	rs.res.RelError = append([]float64(nil), s.RelError...)
	rs.res.Trace = append([]obs.TraceEvent(nil), s.Trace...)
	rs.res.Iters = s.Iteration
	return s.U.Clone(), s.Iteration, nil
}

// beginIteration runs the per-iteration preamble: the fault-injection site
// and the cancellation check, then opens the sweep's observability window
// (wall clock, counter baseline, health baseline, pprof phase label). u is
// the factor the iteration would read — exactly what a cancel-exit
// snapshot must preserve.
func (rs *runState) beginIteration(it int, u *linalg.Matrix) error {
	if err := faultinject.Fire(faultinject.SiteIteration, it); err != nil {
		return err
	}
	if ctxDone(rs.ctx()) {
		return rs.canceledErr(u, ctxCause(rs.ctx()))
	}
	rs.sweepStart = time.Now()
	rs.sweepBase = rs.m.Snapshot()
	rs.healthBase = len(rs.res.Health.Events)
	rs.m.SetPhase(fmt.Sprintf("sweep-%d", it))
	return nil
}

// endIteration closes a *completed* sweep: it builds the TraceEvent
// (convergence state, wall time, per-plan counter deltas, the sweep's
// health events), appends it to Result.Trace, writes the periodic
// checkpoint when one is due — after the append, so the snapshot carries
// the sweep's own event and a resumed run's trace continues seamlessly —
// and streams the event to the optional sink. A failed periodic snapshot
// aborts the run (a silently unresumable long run is worse than a loud
// early death, same policy as before the trace existed); a sink failure is
// only a health event — observability must never kill a decomposition.
// Drivers call it once per completed sweep, with u being the factor the
// next iteration will read; a nil u skips the checkpoint — the break paths
// that stop *before* the factor update (HOQRI's convergence and
// OnIteration exits) have no resumable factor to offer, exactly as before
// the trace existed.
func (rs *runState) endIteration(it int, u *linalg.Matrix) error {
	ev := obs.TraceEvent{
		Sweep:  it,
		WallNs: time.Since(rs.sweepStart).Nanoseconds(),
		Plans:  obs.DiffSnapshots(rs.sweepBase, rs.m.Snapshot()),
	}
	if n := len(rs.res.Objective); n > 0 {
		ev.Objective = rs.res.Objective[n-1]
		ev.RelError = rs.res.RelError[n-1]
		ev.Fit = 1 - ev.RelError
	}
	if events := rs.res.Health.Events; len(events) > rs.healthBase {
		ev.Health = append([]string(nil), events[rs.healthBase:]...)
	}
	if u != nil && rs.opts.CheckpointPath != "" && rs.res.Iters%rs.opts.CheckpointEvery == 0 {
		ev.Checkpoint = rs.opts.CheckpointPath
		rs.res.Trace = append(rs.res.Trace, ev)
		if err := rs.save(u); err != nil {
			return err
		}
	} else {
		rs.res.Trace = append(rs.res.Trace, ev)
	}
	if rs.opts.TraceSink != nil {
		if err := rs.opts.TraceSink.Emit(ev); err != nil {
			rs.event("iteration %d: trace sink failed: %v", it, err)
		}
	}
	return nil
}

// canceledErr snapshots best-effort (so an interrupted run is resumable
// without losing completed iterations) and builds the typed error.
func (rs *runState) canceledErr(u *linalg.Matrix, cause error) error {
	path := ""
	if rs.opts.CheckpointPath != "" && u != nil {
		if err := rs.save(u); err != nil {
			rs.event("checkpoint on cancel failed: %v", err)
		} else {
			path = rs.opts.CheckpointPath
		}
	}
	rs.finish()
	return &CanceledError{Iters: rs.res.Iters, Partial: rs.res, CheckpointPath: path, Cause: cause}
}

func (rs *runState) save(u *linalg.Matrix) error {
	err := checkpoint.Save(rs.opts.CheckpointPath, &checkpoint.State{
		Algo:        rs.algo,
		Fingerprint: rs.fp,
		Iteration:   rs.res.Iters,
		Seed:        rs.opts.Seed,
		U:           u,
		Objective:   rs.res.Objective,
		RelError:    rs.res.RelError,
		Trace:       rs.res.Trace,
	})
	return err
}

// wrapKernelErr classifies a kernel or SVD failure into the taxonomy:
// cancellation → *CanceledError (after a best-effort snapshot of u, the
// factor the failed phase was reading), guard rejection → ErrBudget (the
// chain keeps memguard.ErrOutOfMemory), anything else passes through.
func (rs *runState) wrapKernelErr(u *linalg.Matrix, err error) error {
	isOOM := errors.Is(err, memguard.ErrOutOfMemory)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		(ctxDone(rs.ctx()) && !isOOM) {
		return rs.canceledErr(u, err)
	}
	if isOOM {
		return fmt.Errorf("%w: %w", ErrBudget, err)
	}
	return err
}

// degrade is the one-shot budget-rejection recovery: one worker (shrinking
// the per-worker lattice workspaces N-fold; a single owner needs no spill
// buffers) and single-engine execution (the sharded backend charges an
// extra Y of partial staging, so it is uninstalled along with everything
// else memory-hungry). Sticky for the rest of the run; note the reduction
// order — and hence the trace — follows the degraded worker count from
// here on.
func (rs *runState) degrade(why error) {
	rs.degraded = true
	rs.kopts.Workers = 1
	rs.kopts.Backend = nil
	rs.res.Health.BudgetRetries++
	rs.event("budget retry: %v; degraded to workers=1, single engine", why)
}

// runTTMc executes one kernel call under the budget policy: a guard
// rejection triggers degrade() and one retry before the failure is typed.
func (rs *runState) runTTMc(u *linalg.Matrix, run func() (*linalg.Matrix, error)) (*linalg.Matrix, error) {
	y, err := run()
	if err != nil && errors.Is(err, memguard.ErrOutOfMemory) && !rs.degraded && !ctxDone(rs.ctx()) {
		rs.degrade(err)
		y, err = run()
	}
	if err != nil {
		return nil, rs.wrapKernelErr(u, err)
	}
	return y, nil
}

// nonFinite returns the index of the first NaN or Inf entry, or -1. The
// scan itself lives in the engine (exec.FirstNonFinite) next to the other
// output-health mechanisms; the repair policy stays here.
func nonFinite(m *linalg.Matrix) int {
	return exec.FirstNonFinite(m.Data)
}

// jitterOrthonormal zeroes non-finite entries of u, perturbs every entry
// with small deterministic noise, and re-orthonormalizes — the escape hatch
// from degenerate factors after an SVD/QR breakdown or poisoned kernel
// output. The noise derives from (seed, iter) only, keeping the seed the
// complete RNG state a checkpoint needs to store.
func jitterOrthonormal(u *linalg.Matrix, seed int64, iter int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(int64(uint64(seed) ^ uint64(iter+1)*0x9e3779b97f4a7c15)))
	j := u.Clone()
	for i, v := range j.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			j.Data[i] = 0
		}
		j.Data[i] += 1e-8 * rng.NormFloat64()
	}
	return linalg.Orthonormalize(j)
}

// healthyTTMc runs a kernel under the full sentinel policy: budget retry,
// then a NaN/Inf scan of the output. A non-finite output triggers one
// jittered restart of the factor and a recompute; a second non-finite
// output is ErrNumericBreakdown. Returns the output and the (possibly
// jittered) factor actually used.
func (rs *runState) healthyTTMc(it int, u *linalg.Matrix,
	run func(*linalg.Matrix) (*linalg.Matrix, error)) (*linalg.Matrix, *linalg.Matrix, error) {
	y, err := rs.runTTMc(u, func() (*linalg.Matrix, error) { return run(u) })
	if err != nil {
		return nil, nil, err
	}
	i := nonFinite(y)
	if i < 0 {
		return y, u, nil
	}
	rs.res.Health.JitterRestarts++
	rs.event("iteration %d: non-finite kernel output at entry %d; jittered restart", it, i)
	u = jitterOrthonormal(u, rs.opts.Seed, it)
	y, err = rs.runTTMc(u, func() (*linalg.Matrix, error) { return run(u) })
	if err != nil {
		return nil, nil, err
	}
	if j := nonFinite(y); j >= 0 {
		return nil, nil, fmt.Errorf("tucker: iteration %d: kernel output still non-finite at entry %d after jittered restart: %w",
			it, j, ErrNumericBreakdown)
	}
	return y, u, nil
}

// healthyFactor applies the sentinel to a freshly updated factor (post-SVD
// or post-QR): non-finite entries trigger one jittered
// re-orthonormalization; persistence is ErrNumericBreakdown.
func (rs *runState) healthyFactor(it int, u *linalg.Matrix) (*linalg.Matrix, error) {
	i := nonFinite(u)
	if i < 0 {
		return u, nil
	}
	rs.res.Health.JitterRestarts++
	rs.event("iteration %d: non-finite factor at entry %d after SVD/QR; jittered re-orthonormalization", it, i)
	u = jitterOrthonormal(u, rs.opts.Seed, it)
	if j := nonFinite(u); j >= 0 {
		return nil, fmt.Errorf("tucker: iteration %d: factor still non-finite at entry %d after jittered re-orthonormalization: %w",
			it, j, ErrNumericBreakdown)
	}
	return u, nil
}

// observeObjective updates the regression/stall counters after
// recordObjective appended iteration it's entry. The ALS objective is
// monotone non-increasing in exact arithmetic, so an increase beyond
// round-off scale is recorded as a regression.
func (rs *runState) observeObjective(it int) {
	n := len(rs.res.Objective)
	if n < 2 {
		return
	}
	prev, cur := rs.res.Objective[n-2], rs.res.Objective[n-1]
	scale := math.Max(math.Abs(prev), 1e-300)
	switch {
	case cur-prev > 1e-6*scale:
		rs.res.Health.Regressions++
		rs.event("iteration %d: objective regressed from %g to %g", it, prev, cur)
	case math.Abs(cur-prev) <= 1e-15*scale:
		rs.res.Health.StallIters++
	}
}
