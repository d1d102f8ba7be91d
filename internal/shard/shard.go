// Package shard is the multi-engine backend of the S³TTMc kernels and the
// drivers' Gram-side products (docs/SHARDING.md): P engines, each an
// exec.Pool of its own, behind the kernels.Backend seam. A sharded
// S³TTMc call is the single-engine owner-computes run with its leaves
// split into contiguous groups, group s on engine s; a sharded Gram
// product bands its output rows the same way. Either way the code that
// computes every output bit is the single-engine code, so the result is
// bitwise identical to it for every shard count (TestShardDeterminismMatrix
// and FuzzShardEquivalence enforce it).
package shard

import (
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
)

// Engines is the sharded backend: P engines, each a worker pool. Construct
// with New, install via kernels.Options.Backend (the tucker drivers do
// this when Options.Shards > 1), and Close when the run ends. The caches a
// call uses are the caller's (kernels.Options), not the engines'.
type Engines struct {
	pools []*exec.Pool
}

// New creates a backend of `shards` engines sized for `workers` total leaf
// slots (GOMAXPROCS when <= 0, matching the kernels' worker resolution):
// engine s's pool gets its balanced share of the slots, at least one. The
// caller owns the result and must Close it.
func New(shards, workers int) *Engines {
	shards = max(shards, 1)
	total := kernels.Options{Workers: workers}.EffectiveWorkers()
	e := &Engines{pools: make([]*exec.Pool, shards)}
	for s := range e.pools {
		lo, hi := exec.ChunkRange(total, shards, s)
		e.pools[s] = exec.NewPool(max(hi-lo, 1))
	}
	return e
}

// Close releases every engine's worker pool. Idempotent and nil-safe.
func (e *Engines) Close() {
	if e == nil {
		return
	}
	for _, p := range e.pools {
		p.Close()
	}
}

// Fan implements kernels.Backend: a PerWorker plan over the engines, with
// no pool of its own, in which engine s runs group(s, lo, hi, pool) on its
// ChunkRange share [lo, hi) of [0, n) and skips an empty share. Once the
// groups join it fires the shard.merge fault site with the engine count,
// before the caller folds their results; a hook error aborts the call.
func (e *Engines) Fan(name string, n int, opts kernels.Options, group func(s, lo, hi int, pool *exec.Pool) error) error {
	shards := len(e.pools)
	err := exec.Run(exec.Config{Ctx: opts.Ctx, Metrics: opts.Obs}, exec.Plan{
		Name:      name,
		Partition: exec.PerWorker,
		Workers:   shards,
		Body: func(wk *exec.Worker, s, _ int) error {
			if err := wk.Tick(s); err != nil {
				return err
			}
			lo, hi := exec.ChunkRange(n, shards, s)
			if lo == hi {
				return nil
			}
			return group(s, lo, hi, e.pools[s])
		},
	})
	if err != nil {
		return err
	}
	return faultinject.Fire(faultinject.SiteShardMerge, shards)
}
