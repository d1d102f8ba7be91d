package exec

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/obs"
)

// Config carries the per-call execution context a kernel threads into Run:
// the cancellation context, the requested worker count (GOMAXPROCS when
// <= 0), the persistent pool slots are dispatched on (nil for transient
// goroutines), and the optional metrics collector every plan invocation is
// recorded into.
type Config struct {
	Ctx     context.Context
	Workers int
	Pool    *Pool
	// Metrics, when non-nil, receives per-plan counters (invocations,
	// items, per-worker busy time, wall span) for every Run through this
	// config. Independent of it, Run also records into the process-global
	// collector when one is installed (obs.SetGlobal). nil costs nothing
	// beyond one nil check and one atomic load per Run.
	Metrics *obs.Metrics
}

// Partition selects how a plan's items are split across workers.
type Partition int

const (
	// Static hands each worker one balanced contiguous range of [0, Items)
	// (ChunkRange). The item→worker assignment is a pure function of
	// (Items, workers), which is what owner-free deterministic passes
	// (n-ary core accumulation, SPLATT roots) rely on.
	Static Partition = iota
	// PerWorker runs Body(w, slot, slot+1) once per worker slot — the
	// explicit entry point for owner-computes kernels whose schedule
	// (ScheduleCache bins) already fixes each worker's item set, rather
	// than a static split of workers items that abuses an item as a slot.
	PerWorker
)

// DefaultCheckEvery is the engine-wide cancellation polling stride: items
// between context polls, the same cancelCheckEvery the kernels hand-rolled
// before the engine existed.
const DefaultCheckEvery = 64

// Plan describes one parallel kernel pass. Zero values select defaults:
// Workers falls back to Config.Workers, CheckEvery to DefaultCheckEvery;
// Scratch and Finish are optional.
type Plan struct {
	// Name identifies the plan in panic errors, metrics and its fault
	// sites (faultinject.PlanWorkerSite/PlanOutputSite).
	Name string
	// Items is the item count being partitioned. Ignored by PerWorker,
	// whose "items" are the worker slots themselves.
	Items int
	// Partition selects the split strategy (Static by default).
	Partition Partition
	// Workers overrides Config.Workers when > 0. Kernels that clamp the
	// worker count to a schedule (owner-computes bins) set it here.
	Workers int
	// CheckEvery is the number of Tick calls between context polls.
	// Plans whose items are coarse (a SPLATT root subtree, a GEMM row
	// block) set 1 so cancellation latency stays bounded by one item.
	CheckEvery int
	// Scratch, when set, runs once per worker slot before its first body
	// call, on the worker's goroutine, typically stashing warm per-worker
	// state (WorkspacePool-backed lattice buffers) in w.Scratch.
	Scratch func(w *Worker) error
	// Body processes items [lo, hi). It is called once per worker.
	// Bodies call w.Tick(item) once per item for cancellation and fault
	// sites.
	Body func(w *Worker, lo, hi int) error
	// Finish, when set, runs serially on the caller in slot order after
	// all workers have joined — for every slot that started, even when
	// the plan failed — so scratch teardown (pool returns, stats folds)
	// is deterministic and leak-free.
	Finish func(w *Worker)
}

// Worker is the per-slot handle passed to a plan's callbacks.
type Worker struct {
	// Index is the slot number in [0, workers).
	Index int
	// Scratch is the slot-private state installed by Plan.Scratch.
	Scratch any

	ctx   context.Context
	every int
	ticks int
	site  faultinject.Site
}

// Tick is the per-item heartbeat: it polls the context every CheckEvery
// calls (including the first), then fires the generic kernels.worker
// fault site followed by the plan-scoped site, with the item as payload.
// A non-nil return aborts the worker with that error.
//
// This runs once per non-zero in every kernel, so the idle path is kept
// to a countdown branch (no division — CheckEvery is a variable, and a
// modulo here costs a real div instruction per item) plus one atomic load
// (the faultinject disarmed check, hoisted so the two sites share it).
func (w *Worker) Tick(item int) error {
	if w.ticks == 0 {
		if err := w.Canceled(); err != nil {
			return err
		}
		w.ticks = w.every
	}
	w.ticks--
	if faultinject.Active() {
		if err := faultinject.Fire(faultinject.SiteKernelWorker, item); err != nil {
			return err
		}
		return faultinject.Fire(w.site, item)
	}
	return nil
}

// Canceled polls the worker's context without blocking, returning the
// cancel cause if it is done and nil otherwise.
func (w *Worker) Canceled() error {
	if IsCanceled(w.ctx) {
		return Cause(w.ctx)
	}
	return nil
}

// Run executes a plan: it refuses pre-canceled contexts before any worker
// starts, fans Body out across the partition with per-slot panic capture,
// joins, runs Finish for every started slot, and returns the first error
// in slot order (deterministic regardless of which worker lost the race).
// A single-worker plan runs inline on the caller with the same capture
// semantics.
//
// A plan must be named: the name keys the plan's fault sites, PanicError
// attribution, and the obs per-plan counters, all of which degrade
// silently under "". When a metrics collector is armed (via
// Config.Metrics or obs.SetGlobal), Run additionally measures each slot's
// busy time and the invocation's wall span, and — when the collector asks
// for it — runs every slot under pprof labels plan=<name>, phase=<phase>.
func Run(cfg Config, plan Plan) error {
	if plan.Body == nil {
		return errors.New("exec: plan " + plan.Name + " has no body")
	}
	if plan.Name == "" {
		return errors.New("exec: plan has no name (Plan.Name is required: it keys fault sites, panic attribution, and metrics)")
	}
	// The plan-scoped worker site is built only while a hook is armed:
	// disarmed, Tick never fires it.
	var site faultinject.Site
	if faultinject.Active() {
		site = faultinject.PlanWorkerSite(plan.Name)
	}
	if IsCanceled(cfg.Ctx) {
		return Cause(cfg.Ctx)
	}
	workers := plan.Workers
	if workers <= 0 {
		workers = cfg.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	items := plan.Items
	if plan.Partition == PerWorker {
		items = workers
	} else if workers > items {
		workers = items
	}
	if items <= 0 {
		return nil
	}
	every := plan.CheckEvery
	if every <= 0 {
		every = DefaultCheckEvery
	}

	// Recorder set: the config's collector plus the process-global one,
	// unless the config's already records into it (obs.NewScoped). The
	// disarmed path is this nil check and one atomic load; Worker.Tick is
	// untouched either way.
	var recs [2]*obs.Metrics
	nrec := 0
	if cfg.Metrics != nil {
		recs[nrec] = cfg.Metrics
		nrec++
	}
	if g := obs.Global(); g != nil && !cfg.Metrics.Feeds(g) {
		recs[nrec] = g
		nrec++
	}

	ws := make([]*Worker, workers)
	errs := make([]error, workers)

	runSlot := func(slot int) {
		// capturePanic must be deferred directly for its recover to take
		// effect.
		defer capturePanic(&errs[slot], plan.Name)
		w := &Worker{Index: slot, ctx: cfg.Ctx, every: every, site: site}
		ws[slot] = w
		if plan.Scratch != nil {
			if err := plan.Scratch(w); err != nil {
				errs[slot] = err
				return
			}
		}
		lo, hi := slot, slot+1
		if plan.Partition != PerWorker {
			lo, hi = ChunkRange(items, workers, slot)
		}
		errs[slot] = plan.Body(w, lo, hi)
	}

	slotFn := runSlot
	var busy []int64
	var spanStart time.Time
	if nrec > 0 {
		busy = make([]int64, workers)
		inner := slotFn
		// Per-slot busy time: written by the slot's goroutine, read after
		// the dispatch join (which provides the happens-before edge).
		slotFn = func(slot int) {
			t := time.Now()
			inner(slot)
			busy[slot] = time.Since(t).Nanoseconds()
		}
		for i := 0; i < nrec; i++ {
			if recs[i].LabelsEnabled() {
				lctx := cfg.Ctx
				if lctx == nil {
					lctx = context.Background()
				}
				labels := pprof.Labels("plan", plan.Name, "phase", recs[i].Phase())
				timed := slotFn
				slotFn = func(slot int) {
					pprof.Do(lctx, labels, func(context.Context) { timed(slot) })
				}
				break
			}
		}
		spanStart = time.Now()
	}

	if workers <= 1 {
		slotFn(0)
	} else {
		cfg.Pool.dispatch(workers, slotFn)
	}
	if plan.Finish != nil {
		for _, w := range ws {
			if w != nil {
				plan.Finish(w)
			}
		}
	}
	if nrec > 0 {
		span := time.Since(spanStart).Nanoseconds()
		for i := 0; i < nrec; i++ {
			recs[i].RecordPlan(plan.Name, workers, items, span, busy)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FireOutput fires the output inspection sites for a finished result: the
// generic kernels.output site first (preserving counts seen by existing
// fault-matrix tests), then the plan-scoped output site. Disarmed, it is
// one atomic load.
func FireOutput(plan string, payload any) error {
	if !faultinject.Active() {
		return nil
	}
	if err := faultinject.Fire(faultinject.SiteKernelOutput, payload); err != nil {
		return err
	}
	return faultinject.Fire(faultinject.PlanOutputSite(plan), payload)
}
