package shard

import (
	"fmt"
	"sort"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// engine is one shard's isolated execution state: a private worker pool
// plus private plan, workspace, schedule, and spill-buffer caches. Nothing
// here is shared with a sibling shard, which is what makes the fan-out
// race-free and the layout NUMA-friendly (phase 2 moves an engine behind a
// transport without changing this struct's role).
type engine struct {
	pool   *exec.Pool
	plans  css.Cache
	ws     kernels.WorkspacePool
	scheds kernels.ScheduleCache
}

// Engines is the sharded backend: P isolated engines behind the
// kernels.Backend seam. Construct with New, install via
// kernels.Options.Backend (the tucker drivers do this when Options.Shards
// > 1), and Close when the run ends. Safe for use from one kernel call at
// a time, like the single-engine caches it replaces.
type Engines struct {
	shards  int
	workers int
	engines []*engine
	// global memoizes the leaf schedule (the single-engine schedule the
	// shards replay) across sweeps, like the drivers' ScheduleCache.
	global kernels.ScheduleCache
}

// New creates a backend of `shards` isolated engines sized for `workers`
// total leaf slots (GOMAXPROCS when <= 0, matching the kernels' worker
// resolution): shard s's pool gets its balanced share of the slots. The
// caller owns the result and must Close it.
func New(shards, workers int) *Engines {
	if shards < 1 {
		shards = 1
	}
	w := kernels.Options{Workers: workers}
	total := w.EffectiveWorkers()
	e := &Engines{shards: shards, workers: total, engines: make([]*engine, shards)}
	for s := range e.engines {
		lo, hi := exec.ChunkRange(total, shards, s)
		size := hi - lo
		if size < 1 {
			size = 1
		}
		e.engines[s] = &engine{pool: exec.NewPool(size)}
	}
	return e
}

// Shards returns the engine count.
func (e *Engines) Shards() int { return e.shards }

// Close releases every engine's worker pool. Idempotent and nil-safe.
func (e *Engines) Close() {
	if e == nil {
		return
	}
	for _, eng := range e.engines {
		eng.pool.Close()
	}
}

// shardOptions derives shard s's kernel options from the caller's: the
// cancellation context, guard, and metrics collector are shared (all
// concurrency-safe), while the pool and every cache are the shard's own.
func (e *Engines) shardOptions(opts kernels.Options, s int) kernels.Options {
	eng := e.engines[s]
	opts.Exec = eng.pool
	opts.PlanCache = &eng.plans
	opts.Pool = &eng.ws
	opts.Schedules = &eng.scheds
	opts.Backend = nil
	return opts
}

// S3TTMc implements kernels.Backend: it fans the owner-computes leaf
// schedule out across the engines, round-trips every partial through the
// versioned wire format, and merges them in fixed order. The result is
// bitwise identical to the single-engine kernel with the same Options for
// any shard count (internal/kernels/partial.go explains why; the
// determinism matrix and fuzz oracle enforce it).
func (e *Engines) S3TTMc(x *spsym.Tensor, u *linalg.Matrix, compact bool, opts kernels.Options) (*linalg.Matrix, error) {
	r := u.Cols
	var cols64 int64
	if compact {
		cols64 = dense.Count(x.Order-1, r)
	} else {
		cols64 = dense.Pow64(int64(r), x.Order-1)
	}
	yBytes := memguard.Float64Bytes(int64(x.Dim) * cols64)
	if err := opts.Guard.Reserve(yBytes, "sharded merged Y"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(yBytes)
	y := linalg.NewMatrix(x.Dim, int(cols64))
	if x.NNZ() == 0 {
		return y, nil
	}
	// Staging charge for the partials in flight: the direct blocks tile one
	// extra Y, and the sparse spill copies (plus their encoded frames) are
	// bounded by the per-leaf spill buffers the partial calls charge
	// separately. Coarse, like every guard model in the module.
	if err := opts.Guard.Reserve(2*yBytes, "shard partial staging"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(2 * yBytes)

	gs := kernels.BuildGlobalSchedule(x, opts.Workers, &e.global)
	frames := make([][]byte, e.shards)
	err := exec.Run(exec.Config{Ctx: opts.Ctx, Metrics: opts.Obs}, exec.Plan{
		Name:      "shard.fanout",
		Partition: exec.PerWorker,
		Workers:   e.shards,
		Body: func(wk *exec.Worker, s, _ int) error {
			if err := wk.Tick(s); err != nil {
				return err
			}
			p, err := kernels.S3TTMcPartial(x, u, e.shardOptions(opts, s), compact, gs, s, e.shards)
			if err != nil {
				return err
			}
			frames[s], err = EncodePartial(p)
			return err
		},
	})
	if err != nil {
		return nil, err
	}

	if err := faultinject.Fire(faultinject.SiteShardMerge, e.shards); err != nil {
		return nil, err
	}
	parts := make([]*kernels.Partial, e.shards)
	for s, frame := range frames {
		p, err := DecodePartial(frame)
		if err != nil {
			return nil, err
		}
		if p.Shard != s || p.Cols != int(cols64) || p.RowHi > x.Dim {
			return nil, fmt.Errorf("shard: partial %d/%d claims shard %d, %d cols, rows [%d,%d)",
				s, e.shards, p.Shard, p.Cols, p.RowLo, p.RowHi)
		}
		parts[s] = p
	}
	if err := mergePartials(y, parts, opts); err != nil {
		return nil, err
	}
	return y, nil
}

// mergePartials folds the decoded partials into y with the deterministic,
// order-fixed reduce: each row is first copied from the one direct block
// owning it, then every leaf spill touching it is added in ascending
// global leaf order — partials arrive in ascending shard order and hold
// their spills in ascending leaf order, so a linear walk replays exactly
// the single-engine schedule.reduce pass. Rows are split statically
// across workers; the per-row fold order never depends on the split.
func mergePartials(y *linalg.Matrix, parts []*kernels.Partial, opts kernels.Options) error {
	cols := y.Cols
	return exec.Run(exec.Config{Ctx: opts.Ctx, Workers: opts.EffectiveWorkers(), Pool: opts.Exec, Metrics: opts.Obs}, exec.Plan{
		Name:  "shard.merge",
		Items: y.Rows,
		Body: func(wk *exec.Worker, lo, hi int) error {
			for _, p := range parts {
				a, b := max(lo, p.RowLo), min(hi, p.RowHi)
				for i := a; i < b; i++ {
					if err := wk.Tick(i); err != nil {
						return err
					}
					copy(y.Row(i), p.Direct[(i-p.RowLo)*cols:(i-p.RowLo+1)*cols])
				}
			}
			for _, p := range parts {
				for _, ls := range p.Spills {
					idx := sort.Search(len(ls.Rows), func(i int) bool { return int(ls.Rows[i]) >= lo })
					for ; idx < len(ls.Rows) && int(ls.Rows[idx]) < hi; idx++ {
						if err := wk.Tick(idx); err != nil {
							return err
						}
						row := int(ls.Rows[idx])
						dense.AxpyCompact(1, ls.Data[idx*cols:(idx+1)*cols], y.Row(row))
					}
				}
			}
			return nil
		},
	})
}
