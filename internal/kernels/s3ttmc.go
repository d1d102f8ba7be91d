// Package kernels implements the computational kernels of the paper:
//
//   - S3TTMcSymProp — the paper's contribution (§III): CSS-lattice
//     computation with symmetry propagated through every intermediate K
//     tensor; compact IOU storage everywhere, output in partially
//     symmetric compact form Y_p (I x S_{N-1,R}).
//   - S3TTMcCSS — the prior state of the art [11], [12]: the same lattice
//     memoization but with *full* dense intermediates (R^l per K tensor)
//     and a full Y(1) (I x R^{N-1}); symmetry of the input only.
//   - S3TTMcInto — the entry behind both, which writes into a
//     caller-held output: a Tucker run recycles one across its sweeps.
//   - SPLATT — the general sparse baseline: CSF over the permutation-
//     expanded non-zero set (internal/csf).
//   - S3TTMcTC — paper Algorithm 2: S3TTMcSymProp, then CoreProduct and
//     TimesCore, the stages HOQRI's sweep runs.
//   - SVDExpand and SVDGram — the stages of HOOI's SVD step (paper
//     Algorithm 3): Property 2's expansion to the full unfolding, and its
//     Gram matrix on the smaller side.
//   - S3MTTKRP — the symmetric MTTKRP behind CP-ALS (internal/cpd), the
//     paper's future-work direction (§VIII).
//
// The sparse kernels parallelize over IOU non-zeros with per-worker lattice
// workspaces; output accumulation is contention-free (owner-computes
// scheduling, see schedule.go), and the owners also zero their rows of a
// recycled output. The dense stages run linalg's row plans. Every kernel
// runs as named exec plans under its Options.
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
	// Pool recycles per-worker lattice workspaces across calls (e.g.
	// across Tucker sweeps). nil allocates fresh workspaces per call.
	Pool *WorkspacePool
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
	// noFusion sends every non-zero through the lattice interpreter, even
	// on the fused grid: the reference this package's tests and
	// BenchmarkS3TTMcFused hold the fused evaluators to.
	noFusion bool
	// lexWalk, like noFusion, sends every non-zero through the lattice
	// interpreter, and there keeps the compact K tensors in lex order,
	// adding each edge with dense.OuterAccumRecursive: the Algorithm-1 loop
	// nest this package's tests hold the colex evaluator to.
	lexWalk bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ExecConfig is the engine configuration of a kernel call under o, which
// a driver's own dense plans (the output scan, CP's Gram) run under too.
func (o Options) ExecConfig() exec.Config {
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
		return fmt.Errorf("kernels: order %d tensor; need order >= 2", x.Order)
	}
	if u.Rows != x.Dim {
		return fmt.Errorf("kernels: factor has %d rows, tensor dimension is %d", u.Rows, x.Dim)
	}
	if u.Cols < 1 {
		return fmt.Errorf("kernels: factor has no columns")
	}
	return nil
}

// workspace is the per-worker state: one set of K buffers sized for the
// widest lattice — the all-distinct one, with C(order, l) nodes at level l
// — plus reusable signature and edge scratch. Every plan's level l has at
// most C(order, l) nodes and each evaluation rewrites every node it reads,
// so plan p uses a prefix of each level and one set serves every plan.
// The compact workspace also holds the colex tables and the lex scratch
// of the colex evaluator (evalLattice).
type workspace struct {
	// levels[l-1][n] is node n's buffer at level l, all carved from one
	// slab; nil until first use (buffers). tops is the slab's top level,
	// order contiguous buffers, which is also the output scratch of the
	// fused evaluators (fusedScratch).
	levels  [][][]float64
	tops    []float64
	values  []int32
	sig     []int
	srcs    [][]float64
	us      [][]float64
	compact bool
	r       int
	order   int
	// off[l-1] holds the colex block offsets of level l, gather the
	// colex→lex table of the top level, and lex the top-level tensor in
	// lex order, as sink.add takes it (compact workspaces only).
	off    [][]int32
	gather []int32
	lex    []float64
}

func newWorkspace(order, r int, compact bool) *workspace {
	return &workspace{
		values:  make([]int32, order),
		sig:     make([]int, order),
		srcs:    make([][]float64, 0, order),
		us:      make([][]float64, 0, order),
		compact: compact,
		r:       r,
		order:   order,
	}
}

// buffers returns the K buffers, allocating them and, for the compact
// layout, the colex tables on first use.
func (w *workspace) buffers() [][][]float64 {
	if w.levels != nil {
		return w.levels
	}
	var total int64
	for l := 1; l < w.order; l++ {
		total += dense.Binomial(w.order, l) * tensorSize(l, w.r, w.compact)
	}
	slab := make([]float64, total)
	w.tops = slab[total-int64(w.order)*tensorSize(w.order-1, w.r, w.compact):]
	w.levels = make([][][]float64, w.order-1)
	for li := range w.levels {
		size := int(tensorSize(li+1, w.r, w.compact))
		w.levels[li] = make([][]float64, dense.Binomial(w.order, li+1))
		for n := range w.levels[li] {
			w.levels[li][n], slab = slab[:size:size], slab[size:]
		}
	}
	if w.compact {
		w.off = make([][]int32, w.order-1)
		for li := range w.off {
			w.off[li] = dense.ColexOffsets(li+1, w.r)
		}
		w.gather = dense.ColexGather(w.order-1, w.r)
		w.lex = make([]float64, len(w.gather))
	}
	return w.levels
}

// colex reports whether evaluations keep this workspace's K buffers in
// colex order: the compact layout, unless lexWalk is set.
func (w *workspace) colex(lexWalk bool) bool {
	return w.compact && !lexWalk
}

// tensorSize is the storage length of an order-l K tensor: its S_{l,r}
// IOU entries when compact, all r^l entries otherwise. An order-(N-1) K
// tensor is one output row.
func tensorSize(l, r int, compact bool) int64 {
	if compact {
		return dense.Count(l, r)
	}
	return dense.Pow64(int64(r), l)
}

// latticeBytes is one worker's workspace footprint: the K buffers of the
// widest lattice and, for the compact layout, the colex tables and the
// lex scratch — exactly what a workspace holds once buffers has run.
func latticeBytes(order, r int, compact bool) int64 {
	var floats, int32s int64
	for l := 1; l <= order-1; l++ {
		v := dense.Binomial(order, l) * tensorSize(l, r, compact)
		if v < 0 || floats+v < 0 {
			return 1 << 62
		}
		floats += v
	}
	if compact {
		top := dense.Count(order-1, r)
		floats += top
		int32s = top + int64(order-1)*int64(r+1)
	}
	if floats < 0 || int32s < 0 {
		return 1 << 62
	}
	return satBytes(memguard.Float64Bytes(floats), 4*int32s)
}

// evalLattice fills the workspace's K buffers for the non-zero with the
// given distinct values, running the Eq. (7) recursion level by level, and
// returns the top level. The compact layout keeps every K tensor in colex
// order and sums each node's edges block by block (dense.ColexNode); the
// lexWalk reference and the CSS full storage clear each node and add its
// edges one outer product at a time in lex order. Both give every entry
// the same products in the same order.
func evalLattice(p *css.Plan, ws *workspace, values []int32, u *linalg.Matrix, lexWalk bool) [][]float64 {
	levels := ws.buffers()
	for n := range p.Levels[0] {
		copy(levels[0][n], u.Row(int(values[n])))
	}
	colex := ws.colex(lexWalk)
	for li := 1; li < len(p.Levels); li++ {
		for n, node := range p.Levels[li] {
			dst := levels[li][n]
			if colex {
				srcs, us := ws.srcs[:0], ws.us[:0]
				for _, e := range node.Edges {
					srcs = append(srcs, levels[li-1][e.Child])
					us = append(us, u.Row(int(values[e.Slot])))
				}
				dense.ColexNode(dst, ws.off[li], srcs, us)
				continue
			}
			clear(dst)
			for _, e := range node.Edges {
				src := levels[li-1][e.Child]
				urow := u.Row(int(values[e.Slot]))
				if ws.compact {
					dense.OuterAccumRecursive(li+1, dst, src, urow, u.Cols)
				} else {
					fullOuterAccum(dst, src, urow)
				}
			}
		}
	}
	return levels[len(p.Levels)-1]
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

// latticeState is one worker's lattice emitter, the per-non-zero step of
// S3TTMcSymProp and S3TTMcCSS. latticePass installs one
// per worker slot and returns its workspace in Finish; the underlying
// buffers recycle across calls through the WorkspacePool.
type latticeState struct {
	x       *spsym.Tensor
	u       *linalg.Matrix
	cache   *css.Cache
	lexWalk bool
	ws      *workspace
	// fused is the per-(order, rank) fused evaluator for all-distinct
	// non-zeros, nil when the call runs fully generic (see resolveFusion);
	// fusedTops is its output scratch, topSize the per-slot block width.
	fused     fusedEvalFunc
	fusedTops []float64
	topSize   int
}

// emit adds non-zero k's top tensors, scaled by its value, through s in
// slot order: tuple order on the fused path, plan.Tops order in the plan
// interpreter.
func (st *latticeState) emit(k int, s *sink) error {
	tuple := st.x.IndexAt(k)
	val := st.x.Values[k]
	if st.fused != nil && allDistinct(tuple) {
		// Fused fast path: slot t's value is tuple[t], so one generated
		// pass computes every top tensor without plan or workspace lookups.
		st.fused(st.u, tuple, st.fusedTops)
		for slot, row := range tuple {
			s.add(int(row), val, st.fusedTops[slot*st.topSize:(slot+1)*st.topSize])
		}
		return nil
	}
	values, sig := css.Signature(tuple, st.ws.values, st.ws.sig)
	plan, err := st.cache.Get(sig)
	if err != nil {
		return err
	}
	top := evalLattice(plan, st.ws, values, st.u, st.lexWalk)
	for slot, node := range plan.Tops {
		kt := top[node]
		if st.ws.colex(st.lexWalk) {
			dense.GatherLex(st.ws.lex, kt, st.ws.gather)
			kt = st.ws.lex
		}
		s.add(int(values[slot]), val, kt)
	}
	return nil
}

// latticePass is the owner-computes pass of the lattice kernels, run as
// plan name. Each worker's emitter is a latticeState on warm buffers from
// Options.Pool, stashed in the worker's Scratch; Finish returns the
// workspace to the pool after the plan joins, for every worker that
// started, success or not.
func latticePass(name string, x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool) ownerPass {
	cache := opts.cache()
	return ownerPass{
		name: name,
		emitter: func(w *exec.Worker, s *sink) func(int) error {
			st := &latticeState{x: x, u: u, cache: cache, lexWalk: opts.lexWalk,
				ws: opts.Pool.get(x.Order, u.Cols, compact)}
			if fk, _ := resolveFusion(opts, compact, x.Order, u.Cols); fk != nil {
				st.fused = fk
				st.fusedTops = st.ws.fusedScratch()
				st.topSize = len(st.fusedTops) / x.Order
			}
			w.Scratch = st
			return func(k int) error { return st.emit(k, s) }
		},
		finish: func(w *exec.Worker) {
			if st, ok := w.Scratch.(*latticeState); ok {
				opts.Pool.put(st.ws)
			}
		},
	}
}

// S3TTMcSymProp computes the SymProp S³TTMc (paper §III): the chain product
// Y = X ×₂ Uᵀ … ×_N Uᵀ, returned in the partially symmetric compact
// unfolding Y_p(1) of shape I x S_{N-1,R} — row k holds the IOU entries of
// the fully symmetric order-(N-1) slice Y(k, :, …, :). It is S3TTMcInto
// with no destination.
func S3TTMcSymProp(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	return S3TTMcInto(nil, x, u, opts, true)
}

// S3TTMcCSS computes the same chain product with the prior-art CSS
// baseline: lattice memoization but full dense intermediates, returning
// the full unfolding Y(1) of shape I x R^{N-1}. It is S3TTMcInto with no
// destination.
func S3TTMcCSS(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	return S3TTMcInto(nil, x, u, opts, false)
}

// S3TTMcInto is the entry of both lattice kernels: S3TTMcSymProp when
// compact is set, S3TTMcCSS otherwise. It computes the K lattice of every
// IOU non-zero and accumulates each top tensor into its output row, scaled
// by the non-zero's value, under owner-computes scheduling.
//
// dst, when non-nil, is the output, overwritten whatever it holds: each
// owner-computes leaf zeroes its own rows before its first emission, so a
// Tucker run recycles one output across its sweeps and gets a fresh call's
// bits. It must have the output's shape (mustOutputShape). A failed call
// leaves dst partly written. nil allocates the output. Either way the
// guard is charged the output's bytes for the length of the call.
func S3TTMcInto(dst *linalg.Matrix, x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool) (*linalg.Matrix, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	r := u.Cols
	cols := tensorSize(x.Order-1, r, compact)
	if dst != nil {
		mustOutputShape(dst, x.Dim, cols)
	}
	recordFusionMiss(opts, compact, x.Order, r)
	site, yLabel, wsLabel := "s3ttmc.css", "full Y(1)", "CSS lattice workspaces"
	if compact {
		site, yLabel, wsLabel = "s3ttmc.symprop", "compact Y_p(1)", "SymProp lattice workspaces"
	}
	if !compact {
		treeBytes := cssTreeBytes(x.NNZ(), x.Order, r)
		if err := opts.Guard.Reserve(treeBytes, "CSS tree-resident K tensors"); err != nil {
			return nil, err
		}
		defer opts.Guard.Release(treeBytes)
	}
	yBytes := memguard.Float64Bytes(int64(x.Dim) * cols)
	wsBytes := latticeBytes(x.Order, r, compact) * int64(opts.workers())
	if err := opts.Guard.Reserve(yBytes, yLabel); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(yBytes)
	if err := opts.Guard.Reserve(wsBytes, wsLabel); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)

	pass := latticePass("s3ttmc.owner", x, u, opts, compact)
	y := dst
	if y == nil {
		y = linalg.NewMatrix(x.Dim, int(cols))
	} else {
		pass.zero = true
	}
	if err := scatter(x, opts, y, pass); err != nil {
		return nil, err
	}
	// Fault-injection point for numeric-health tests: an armed hook may
	// poison y (e.g. write a NaN) or abort the kernel with an error.
	if err := exec.FireOutput(site, y); err != nil {
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

// mustOutputShape panics when a caller-supplied S³TTMc destination is not
// the rows x cols output of the call it is handed to. The shape follows
// from the tensor, the rank and the layout, which a caller recycling one
// output across sweeps holds fixed, so a mismatch means it handed over a
// buffer of another run or layout — a programming bug, not a runtime
// condition.
func mustOutputShape(dst *linalg.Matrix, rows int, cols int64) {
	if dst.Rows != rows || int64(dst.Cols) != cols {
		panic(fmt.Sprintf("kernels: S3TTMcInto: destination is %dx%d, the output is %dx%d",
			dst.Rows, dst.Cols, rows, cols))
	}
}

// ExpandCompactColumns expands a partially symmetric compact unfolding
// Y_p(1) (I x S_{order-1,r}) to the full unfolding Y(1) (I x r^{order-1}),
// realizing the expansion matrix E of paper Property 2
// (dense.ExpansionTable), on the calling goroutine.
func ExpandCompactColumns(yp *linalg.Matrix, order, r int) *linalg.Matrix {
	out, gather := expansion(yp, order, r)
	gather(0, yp.Rows)
	return out
}

// SVDExpand is the first stage of HOOI's SVD step (paper Algorithm 3): the
// expansion of ExpandCompactColumns, run as plan "svd.expand" over Y(1)'s
// rows under opts. HOOI reserves the full unfolding before calling it.
func SVDExpand(yp *linalg.Matrix, order, r int, opts Options) (*linalg.Matrix, error) {
	out, gather := expansion(yp, order, r)
	if err := linalg.RunRows(opts.ExecConfig(), "svd.expand", yp.Rows, gather); err != nil {
		return nil, err
	}
	return out, nil
}

// expansion allocates the full unfolding that the compact yp expands to
// and returns it with the row gather that fills its rows [lo, hi).
func expansion(yp *linalg.Matrix, order, r int) (*linalg.Matrix, func(lo, hi int)) {
	mustCompactShape(yp, order, r)
	ranks := dense.ExpansionTable(order-1, r)
	out := linalg.NewMatrix(yp.Rows, len(ranks))
	return out, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := yp.Row(i)
			dst := out.Row(i)
			for lin, rk := range ranks {
				dst[lin] = src[rk]
			}
		}
	}
}

// SVDGram is the second stage of HOOI's SVD step, shared by HOOI and
// HOOI-CSS: the Gram matrix of the full unfolding y on its smaller side,
// run as plan "svd.gram" under opts. With no more rows than columns it is
// the I x I y·yᵀ (linalg.RunMulNT, the aliased triangle), otherwise the
// cols x cols yᵀ·y (linalg.RunMulTN). The caller reserves the Gram.
func SVDGram(y *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	if y.Rows <= y.Cols {
		return linalg.RunMulNT(opts.ExecConfig(), "svd.gram", y, y)
	}
	return linalg.RunMulTN(opts.ExecConfig(), "svd.gram", y, y)
}
