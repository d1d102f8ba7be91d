// Package kernels implements the computational kernels of the paper:
//
//   - S3TTMcSymProp — the paper's contribution (§III): CSS-lattice
//     computation with symmetry propagated through every intermediate K
//     tensor; compact IOU storage everywhere, output in partially
//     symmetric compact form Y_p (I x S_{N-1,R}).
//   - S3TTMcCSS — the prior state of the art [11], [12]: the same lattice
//     memoization but with *full* dense intermediates (R^l per K tensor)
//     and a full Y(1) (I x R^{N-1}); symmetry of the input only.
//   - SPLATT — the general sparse baseline: CSF over the permutation-
//     expanded non-zero set (internal/csf).
//   - S3TTMcTC — paper Algorithm 2, feeding HOQRI.
//
// All kernels parallelize over IOU non-zeros with per-worker lattice
// workspaces; output accumulation is contention-free (owner-computes
// scheduling, see schedule.go).
package kernels

import (
	"context"
	"fmt"
	"runtime"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// IterationStrategy selects how the compact symmetric layouts are
// iterated inside the SymProp kernel — the §VI-B.4 ablation, end to end.
type IterationStrategy int

const (
	// IterGenerated (default) dispatches to the fully unrolled loop nests
	// of internal/dense — the metaprogramming analog.
	IterGenerated IterationStrategy = iota
	// IterRecursive uses the recursive-closure loop nest.
	IterRecursive
	// IterIndexMapped uses boundary tracing plus an explicit rank
	// computation per entry — the Ballard et al. [16] baseline.
	IterIndexMapped
)

// Options configures kernel execution.
type Options struct {
	// Ctx, when non-nil, cancels in-flight kernels cooperatively: the
	// execution engine polls it every exec.DefaultCheckEvery items and the
	// kernel returns the context's cause. A nil context never cancels.
	Ctx context.Context
	// Guard bounds memory; nil disables the budget.
	Guard *memguard.Guard
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// PlanCache carries lattice plans across calls (e.g. across Tucker
	// iterations). nil uses a fresh per-call cache.
	PlanCache *css.Cache
	// Iteration selects the compact-layout iteration strategy (SymProp
	// kernels only); the default is the generated loop nests.
	Iteration IterationStrategy
	// Pool recycles per-worker lattice workspaces across calls (e.g.
	// across Tucker sweeps). nil allocates fresh workspaces per call.
	Pool *WorkspacePool
	// Fusion selects whether all-distinct non-zeros may dispatch to the
	// fused per-(order, rank) evaluators of fused_gen.go (FusionAuto, the
	// default) or must take the generic lattice path (FusionOff, the
	// codegen-v2 ablation baseline). SymProp compact kernels only; the two
	// paths produce bit-identical output. See fused.go and docs/CODEGEN.md.
	Fusion Fusion
	// Schedules carries owner-computes schedules across calls (e.g. across
	// Tucker iterations), the scheduling analog of PlanCache. nil rebuilds
	// the schedule per call.
	Schedules *ScheduleCache
	// Exec is the persistent execution-engine worker pool kernel plans are
	// dispatched on (created once per decomposition run by the Tucker
	// drivers and shared across every sweep). nil runs each plan on
	// transient goroutines — correct, but without cross-call worker reuse.
	// The pool is borrowed: kernels never close it (see exec.NewPool).
	Exec *exec.Pool
	// Obs, when non-nil, collects per-plan metrics (invocations, items,
	// per-worker busy time, span, load imbalance) for every engine plan
	// this kernel call runs. nil records nothing.
	Obs *obs.Metrics
	// Backend, when non-nil, routes S3TTMcSymProp/S3TTMcCSS through an
	// alternative execution backend — in practice internal/shard's
	// multi-engine fan-out (docs/SHARDING.md). nil runs the single-engine
	// path in this package. The kernel clears the field before handing
	// these Options to the backend, so backends reuse the remaining
	// options for their per-shard calls without re-entering themselves.
	Backend Backend
}

// Backend is the seam a sharded (or, later, networked) execution layer
// plugs into: it receives exactly the arguments of the single-engine
// kernel — opts with Backend already cleared — and must return an output
// bitwise identical to it. internal/shard implements it; the interface
// lives here so kernels do not import the layer above them.
type Backend interface {
	// S3TTMc computes the chain product for x and u. compact selects the
	// SymProp compact unfolding (S3TTMcSymProp) versus the full CSS
	// unfolding (S3TTMcCSS).
	S3TTMc(x *spsym.Tensor, u *linalg.Matrix, compact bool, opts Options) (*linalg.Matrix, error)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers resolves the requested worker count the way every
// kernel in this package does (GOMAXPROCS when Workers <= 0) — exported
// so layered backends (internal/shard) size their engines and merge plans
// identically.
func (o Options) EffectiveWorkers() int { return o.workers() }

// execConfig bundles the engine inputs of one kernel call.
func (o Options) execConfig() exec.Config {
	return exec.Config{Ctx: o.Ctx, Workers: o.workers(), Pool: o.Exec, Metrics: o.Obs}
}

func (o Options) cache() *css.Cache {
	if o.PlanCache != nil {
		return o.PlanCache
	}
	return &css.Cache{}
}

func validate(x *spsym.Tensor, u *linalg.Matrix) error {
	if x.Order < 2 {
		return fmt.Errorf("kernels: order %d tensor; S3TTMc requires order >= 2", x.Order)
	}
	if u.Rows != x.Dim {
		return fmt.Errorf("kernels: factor has %d rows, tensor dimension is %d", u.Rows, x.Dim)
	}
	if u.Cols < 1 {
		return fmt.Errorf("kernels: factor has no columns")
	}
	return nil
}

// latticeBufs holds per-worker K-tensor buffers for one plan: one buffer
// per lattice node, level-major.
type latticeBufs struct {
	levels [][][]float64
}

// workspace is the per-worker state: lattice buffers per plan plus reusable
// signature scratch.
type workspace struct {
	byPlan  map[*css.Plan]*latticeBufs
	values  []int32
	sig     []int
	compact bool
	r       int
	order   int
	// fusedTops is the output scratch of the fused evaluators (order
	// slot-major blocks of S_{order-1,r} entries), allocated on first use
	// by fusedScratch and recycled with the workspace.
	fusedTops []float64
}

func newWorkspace(order, r int, compact bool) *workspace {
	return &workspace{
		byPlan:  make(map[*css.Plan]*latticeBufs),
		values:  make([]int32, order),
		sig:     make([]int, order),
		compact: compact,
		r:       r,
		order:   order,
	}
}

func (w *workspace) get(p *css.Plan) *latticeBufs {
	if b, ok := w.byPlan[p]; ok {
		return b
	}
	b := &latticeBufs{levels: make([][][]float64, len(p.Levels))}
	for li, lvl := range p.Levels {
		l := li + 1
		var size int64
		if w.compact {
			size = dense.Count(l, w.r)
		} else {
			size = dense.Pow64(int64(w.r), l)
		}
		b.levels[li] = make([][]float64, len(lvl))
		for n := range lvl {
			b.levels[li][n] = make([]float64, size)
		}
	}
	w.byPlan[p] = b
	return b
}

// latticeBytes estimates one worker's buffer footprint for the
// all-distinct signature of the given order (the widest lattice).
func latticeBytes(order, r int, compact bool) int64 {
	var floats int64
	for l := 1; l <= order-1; l++ {
		nodes := dense.Binomial(order, l)
		var size int64
		if compact {
			size = dense.Count(l, r)
		} else {
			size = dense.Pow64(int64(r), l)
		}
		v := nodes * size
		if v < 0 || floats+v < 0 {
			return 1 << 62
		}
		floats += v
	}
	return memguard.Float64Bytes(floats)
}

// evalLattice fills b's buffers for the non-zero with the given distinct
// values, running the Eq. (7) recursion level by level.
func evalLattice(p *css.Plan, b *latticeBufs, values []int32, u *linalg.Matrix, compact bool, iter IterationStrategy) {
	r := u.Cols
	for n := range p.Levels[0] {
		copy(b.levels[0][n], u.Row(int(values[n])))
	}
	outer := outerFor(iter)
	for li := 1; li < len(p.Levels); li++ {
		l := li + 1
		for n := range p.Levels[li] {
			dst := b.levels[li][n]
			for i := range dst {
				dst[i] = 0
			}
			for _, e := range p.Levels[li][n].Edges {
				src := b.levels[li-1][e.Child]
				urow := u.Row(int(values[e.Slot]))
				if compact {
					outer(l, dst, src, urow, r)
				} else {
					fullOuterAccum(dst, src, urow)
				}
			}
		}
	}
}

// outerFor maps an iteration strategy to its outer-product kernel.
func outerFor(iter IterationStrategy) func(int, []float64, []float64, []float64, int) {
	switch iter {
	case IterRecursive:
		return dense.OuterAccumRecursive
	case IterIndexMapped:
		return dense.OuterAccumIndexMapped
	default:
		return dense.OuterAccum
	}
}

// fullOuterAccum is the baseline outer product on full R^l storage with the
// new mode last and fastest: dst[a*r + j] += u[j] * src[a].
func fullOuterAccum(dst, src, u []float64) {
	r := len(u)
	pos := 0
	for _, s := range src {
		for j := 0; j < r; j++ {
			dst[pos] += u[j] * s
			pos++
		}
	}
}

// latticeState is the per-worker mutable state of one lattice plan
// (s3ttmc.owner here, the shard partial in partial.go): each installs one
// per worker slot via the plan's Scratch hook and returns it in Finish;
// the underlying buffers recycle across calls through the WorkspacePool.
type latticeState struct {
	ws *workspace
	// fused is the per-(order, rank) fused evaluator for all-distinct
	// non-zeros, nil when the call runs fully generic (see resolveFusion);
	// fusedTops is its output scratch, topSize the per-slot block width.
	fused     fusedEvalFunc
	fusedTops []float64
	topSize   int
}

func newLatticeState(x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool) *latticeState {
	st := &latticeState{ws: opts.Pool.get(x.Order, u.Cols, compact)}
	if fk := resolveFusion(opts, compact, x.Order, u.Cols); fk != nil {
		st.fused = fk
		st.fusedTops = st.ws.fusedScratch()
		st.topSize = len(st.fusedTops) / x.Order
	}
	return st
}

// evalNonZero computes the K lattice of non-zero k into st's buffers
// through the plan interpreter. It returns the plan and the distinct index
// values; the caller reads the top level from the returned buffers.
func evalNonZero(x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool,
	cache *css.Cache, st *latticeState, k int) (*css.Plan, []int32, *latticeBufs, error) {
	tuple := x.IndexAt(k)
	values, sig := css.Signature(tuple, st.ws.values, st.ws.sig)
	plan, err := cache.Get(sig)
	if err != nil {
		return nil, nil, nil, err
	}
	bufs := st.ws.get(plan)
	evalLattice(plan, bufs, values, u, compact, opts.Iteration)
	return plan, values, bufs, nil
}

// runLattice is the shared driver: computes the K lattice for every IOU
// non-zero and accumulates each top tensor into its output row of y,
// scaled by the non-zero's value, under owner-computes scheduling.
func runLattice(x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool, y *linalg.Matrix) error {
	cache := opts.cache()
	nnz := x.NNZ()
	if nnz == 0 {
		return nil
	}
	workers := min(opts.workers(), nnz)
	// Cheap early exit before the schedule is built or spill bytes are
	// reserved; exec.Run re-checks before spawning workers.
	if exec.IsCanceled(opts.Ctx) {
		return exec.Cause(opts.Ctx)
	}
	workers, release := reserveSpills(opts.Guard, y.Rows, y.Cols, workers)
	defer release()
	return runLatticeOwner(x, u, opts, compact, cache, workers, y)
}

// latticeScratch installs a fresh per-worker lattice state (warm buffers
// via Options.Pool) and latticeFinish returns its workspace to the pool
// after the plan joins, for every worker that started, success or not.
func latticeScratch(x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool) func(*exec.Worker) error {
	return func(w *exec.Worker) error {
		w.Scratch = newLatticeState(x, u, opts, compact)
		return nil
	}
}

func latticeFinish(opts Options) func(*exec.Worker) {
	return func(w *exec.Worker) {
		if st, ok := w.Scratch.(*latticeState); ok {
			opts.Pool.put(st.ws)
		}
	}
}

// runLatticeOwner is the owner-computes driver (schedule.go): workers
// process the non-zeros binned to their row partition, write owned rows
// directly, spill foreign rows into private buffers, and a deterministic
// reduction folds the spills into y. The engine's PerWorker partition is
// the explicit owner entry point: Body runs once per owner index.
func runLatticeOwner(x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool,
	cache *css.Cache, workers int, y *linalg.Matrix) error {
	sched := opts.Schedules.get(x, workers)
	workers = sched.workers // clamped to the row count
	spills := newSpillSet(opts.Schedules, workers, y.Rows, y.Cols)
	err := exec.Run(opts.execConfig(), exec.Plan{
		Name:      "s3ttmc.owner",
		Partition: exec.PerWorker,
		Workers:   workers,
		Scratch:   latticeScratch(x, u, opts, compact),
		Finish:    latticeFinish(opts),
		Body: func(wk *exec.Worker, w, _ int) error {
			st := wk.Scratch.(*latticeState)
			rowLo, rowHi := sched.ownedRows(w)
			spill := spills.buffer(w)
			for _, k32 := range sched.bin(w) {
				k := int(k32)
				if err := wk.Tick(k); err != nil {
					return err
				}
				if st.fused != nil {
					// Fused fast path: all-distinct non-zeros (slot t's
					// value is tuple[t]) skip the plan/workspace lookups and
					// compute every top tensor in one generated pass.
					tuple := x.IndexAt(k)
					if allDistinct(tuple) {
						st.fused(u, tuple, st.fusedTops)
						val := x.Values[k]
						for slot := range tuple {
							row := int(tuple[slot])
							top := st.fusedTops[slot*st.topSize : (slot+1)*st.topSize]
							if row >= rowLo && row < rowHi {
								dense.AxpyCompact(val, top, y.Row(row))
							} else {
								spill.add(row, val, top)
							}
						}
						continue
					}
				}
				plan, values, bufs, err := evalNonZero(x, u, opts, compact, cache, st, k)
				if err != nil {
					return err
				}
				topLevel := bufs.levels[len(plan.Levels)-1]
				val := x.Values[k]
				for slot, node := range plan.Tops {
					row := int(values[slot])
					if row >= rowLo && row < rowHi {
						dense.AxpyCompact(val, topLevel[node], y.Row(row))
					} else {
						spill.add(row, val, topLevel[node])
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		// The spill buffers may hold partial updates from aborted workers;
		// skipping reduceInto leaves them to the GC instead of returning
		// dirty memory to the pool's all-zero free list.
		return err
	}
	return spills.reduceInto(y, workers, opts.Schedules, opts.Exec, opts.Obs)
}

// S3TTMcSymProp computes the SymProp S³TTMc (paper §III): the chain product
// Y = X ×₂ Uᵀ … ×_N Uᵀ, returned in the partially symmetric compact
// unfolding Y_p(1) of shape I x S_{N-1,R} — row k holds the IOU entries of
// the fully symmetric order-(N-1) slice Y(k, :, …, :).
func S3TTMcSymProp(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	recordFusionMiss(opts, true, x.Order, u.Cols)
	if b := opts.Backend; b != nil {
		opts.Backend = nil
		y, err := b.S3TTMc(x, u, true, opts)
		if err != nil {
			return nil, err
		}
		// Same output fault site as the single-engine path, so the
		// resilience matrix covers both routes identically.
		if err := exec.FireOutput("s3ttmc.symprop", y); err != nil {
			return nil, err
		}
		return y, nil
	}
	r := u.Cols
	cols := dense.Count(x.Order-1, r)
	yBytes := memguard.Float64Bytes(int64(x.Dim) * cols)
	wsBytes := latticeBytes(x.Order, r, true) * int64(opts.workers())
	if err := opts.Guard.Reserve(yBytes, "compact Y_p(1)"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(yBytes)
	if err := opts.Guard.Reserve(wsBytes, "SymProp lattice workspaces"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)

	y := linalg.NewMatrix(x.Dim, int(cols))
	if err := runLattice(x, u, opts, true, y); err != nil {
		return nil, err
	}
	// Fault-injection point for numeric-health tests: an armed hook may
	// poison y (e.g. write a NaN) or abort the kernel with an error.
	if err := exec.FireOutput("s3ttmc.symprop", y); err != nil {
		return nil, err
	}
	return y, nil
}

// cssTreeBytes models the resident memory of the CSS format of [12], which
// memoizes the dense K tensors *in the tree*, one per level per non-zero
// path: unnz · Σ_{l=2}^{N-1} R^l doubles. Our evaluation is transient (per
// worker), so the bytes are charged to the guard without being physically
// allocated — reproducing which configurations the published CSS
// implementation can and cannot fit (paper Figs. 4, 5; DESIGN.md §4).
func cssTreeBytes(nnz, order, r int) int64 {
	var floats int64
	for l := 2; l <= order-1; l++ {
		v := dense.Pow64(int64(r), l)
		if floats += v; floats < 0 {
			return 1 << 62
		}
	}
	total := floats * int64(nnz)
	if floats > 0 && total/floats != int64(nnz) {
		return 1 << 62
	}
	return memguard.Float64Bytes(total)
}

// S3TTMcCSS computes the same chain product with the prior-art CSS
// baseline: lattice memoization but full dense intermediates, returning
// the full unfolding Y(1) of shape I x R^{N-1}.
func S3TTMcCSS(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	recordFusionMiss(opts, false, x.Order, u.Cols)
	if b := opts.Backend; b != nil {
		opts.Backend = nil
		y, err := b.S3TTMc(x, u, false, opts)
		if err != nil {
			return nil, err
		}
		if err := exec.FireOutput("s3ttmc.css", y); err != nil {
			return nil, err
		}
		return y, nil
	}
	r := u.Cols
	treeBytes := cssTreeBytes(x.NNZ(), x.Order, r)
	if err := opts.Guard.Reserve(treeBytes, "CSS tree-resident K tensors"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(treeBytes)
	cols := dense.Pow64(int64(r), x.Order-1)
	yBytes := memguard.Float64Bytes(int64(x.Dim) * cols)
	wsBytes := latticeBytes(x.Order, r, false) * int64(opts.workers())
	if err := opts.Guard.Reserve(yBytes, "full Y(1)"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(yBytes)
	if err := opts.Guard.Reserve(wsBytes, "CSS lattice workspaces"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)

	y := linalg.NewMatrix(x.Dim, int(cols))
	if err := runLattice(x, u, opts, false, y); err != nil {
		return nil, err
	}
	if err := exec.FireOutput("s3ttmc.css", y); err != nil {
		return nil, err
	}
	return y, nil
}

// mustCompactShape panics when yp's column count disagrees with the
// compact width S_{order-1,r} it must have been produced with. The
// (order, r) pair travels alongside every compact unfolding inside the
// kernels, so a mismatch means the caller mixed buffers from different
// runs — a programming bug, not a runtime condition. The symlint
// panicpolicy analyzer keeps library panics inside documented helpers like
// this one.
func mustCompactShape(yp *linalg.Matrix, order, r int) {
	if want := dense.Count(order-1, r); int64(yp.Cols) != want {
		panic(fmt.Sprintf("kernels: ExpandCompactColumns: matrix has %d columns, but order %d rank %d implies %d",
			yp.Cols, order, r, want))
	}
}

// ExpandCompactColumns expands a partially symmetric compact unfolding
// Y_p(1) (I x S_{order-1,r}) to the full unfolding Y(1) (I x r^{order-1}),
// realizing the expansion matrix E of paper Property 2. Intended for tests
// and small cases.
func ExpandCompactColumns(yp *linalg.Matrix, order, r int) *linalg.Matrix {
	mustCompactShape(yp, order, r)
	symOrder := order - 1
	fullCols := int(dense.Pow64(int64(r), symOrder))
	out := linalg.NewMatrix(yp.Rows, fullCols)
	// Precompute the compact rank of every full column once.
	ranks := make([]int64, fullCols)
	digits := make([]int, symOrder)
	for lin := 0; lin < fullCols; lin++ {
		rem := lin
		for a := symOrder - 1; a >= 0; a-- {
			digits[a] = rem % r
			rem /= r
		}
		s := dense.SortedCopy(digits)
		ranks[lin] = dense.Rank(s, r)
	}
	exec.For(nil, yp.Rows, runtime.GOMAXPROCS(0), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := yp.Row(i)
			dst := out.Row(i)
			for lin, rk := range ranks {
				dst[lin] = src[rk]
			}
		}
	})
	return out
}
