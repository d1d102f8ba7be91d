package kernels

// This file is the kernel half of the sharded S³TTMc backend
// (internal/shard, docs/SHARDING.md). Sharding does not invent a new
// parallel decomposition: it re-executes the *same* owner-computes leaf
// schedule the single-engine path would run with L workers, except that
// the L leaves are split into contiguous groups and each group runs on an
// isolated engine. Both paths run the one owner-computes loop (ownerPass)
// with the same lattice emitter: every leaf still processes its bin in
// ascending non-zero order, writes its own rows directly, and spills
// everything else into a private buffer; the cross-shard merge then folds
// spills in global leaf order — exactly the schedule.reduce pass. Because
// both the per-row write sequence and the reduction order are preserved
// verbatim, the merged output is bitwise identical to the single-engine
// kernel for any shard count and any input values, not just the dyadic
// fixtures.

import (
	"fmt"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// GlobalSchedule is the exported, shard-aware view of one owner-computes
// schedule: the L leaves (single-engine worker slots) the sharded run
// distributes. It is immutable once built and safe to share across shards.
type GlobalSchedule struct {
	x     *spsym.Tensor
	sched *schedule
}

// BuildGlobalSchedule resolves the effective leaf count exactly as the
// single-engine kernel resolves its worker count — the requested workers
// (GOMAXPROCS when <= 0) clamped to the non-zero count, then to [1, dim]
// by the schedule build — and returns the leaf schedule for x. The cache
// memoizes the binning pass across sweeps; nil builds fresh.
func BuildGlobalSchedule(x *spsym.Tensor, workers int, c *ScheduleCache) *GlobalSchedule {
	opts := Options{Workers: workers}
	w := opts.workers()
	if nnz := x.NNZ(); w > nnz {
		w = nnz
	}
	if w < 1 {
		w = 1
	}
	return &GlobalSchedule{x: x, sched: c.get(x, w)}
}

// Leaves returns the leaf count L — the single-engine worker count whose
// schedule the sharded run replays.
func (g *GlobalSchedule) Leaves() int { return g.sched.workers }

// LeafRows returns leaf l's owned half-open output-row range.
func (g *GlobalSchedule) LeafRows(l int) (lo, hi int) { return g.sched.ownedRows(l) }

// ShardLeaves returns shard s's contiguous leaf group under the balanced
// static split of the L leaves across shards (exec.ChunkRange). Shards
// beyond the leaf count get empty groups and contribute empty partials.
func (g *GlobalSchedule) ShardLeaves(s, shards int) (lo, hi int) {
	return exec.ChunkRange(g.sched.workers, shards, s)
}

// ShardRows returns the contiguous output-row block shard s's direct
// partial covers: the union of its leaves' owned row ranges.
func (g *GlobalSchedule) ShardRows(s, shards int) (lo, hi int) {
	leafLo, leafHi := g.ShardLeaves(s, shards)
	if leafLo >= leafHi {
		return 0, 0
	}
	return int(g.sched.rowStart[leafLo]), int(g.sched.rowStart[leafHi])
}

// LeafSpill is one leaf's foreign-row contributions in sparse form: Rows
// holds the touched output rows in ascending order and Data the matching
// compact row vectors (len(Rows)·cols, row-major). The order is part of
// the contract — the merge replays it without sorting.
type LeafSpill struct {
	Leaf int
	Rows []int32
	Data []float64
}

// Partial is one shard's contribution to a sharded S³TTMc call: the dense
// block of rows its leaves own plus each leaf's spill into rows owned
// elsewhere. Partials travel through the internal/shard wire format even
// in-process, so every field is plain data.
type Partial struct {
	Shard          int
	LeafLo, LeafHi int
	RowLo, RowHi   int
	Cols           int
	// Direct is the (RowHi-RowLo)·Cols row-major block of rows this
	// shard's leaves own, fully accumulated.
	Direct []float64
	// Spills holds one entry per leaf in [LeafLo, LeafHi) that spilled at
	// least one row, in ascending leaf order.
	Spills []LeafSpill
}

// S3TTMcPartial computes shard `shard` of `shards`'s partial for the
// S³TTMc chain product, running the shard's leaf group of gs as the plan
// "s3ttmc.shard[i]" (one worker slot per leaf, so per-shard busy time and
// imbalance land under that name in internal/obs). opts supplies the
// shard-private engine: its Exec pool, Schedules (spill-buffer pool),
// PlanCache, and workspace Pool must not be shared with a concurrently
// running shard; Obs, Guard, and Ctx may be shared. The caller merges the
// returned partials with shard.Merge — see the file comment for why the
// result is bitwise identical to the single-engine kernel.
func S3TTMcPartial(x *spsym.Tensor, u *linalg.Matrix, opts Options, compact bool,
	gs *GlobalSchedule, shard, shards int) (*Partial, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	if gs == nil || gs.x != x {
		return nil, fmt.Errorf("kernels: S3TTMcPartial: schedule was built for a different tensor")
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("kernels: S3TTMcPartial: shard %d of %d", shard, shards)
	}
	r := u.Cols
	cols := int(tensorSize(x.Order-1, r, compact))
	leafLo, leafHi := gs.ShardLeaves(shard, shards)
	rowLo, rowHi := gs.ShardRows(shard, shards)
	p := &Partial{Shard: shard, LeafLo: leafLo, LeafHi: leafHi, RowLo: rowLo, RowHi: rowHi, Cols: cols}
	leaves := leafHi - leafLo
	if leaves == 0 {
		return p, nil
	}

	wsBytes := latticeBytes(x.Order, r, compact) * int64(leaves)
	if err := opts.Guard.Reserve(wsBytes, "shard lattice workspaces"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)
	pass := latticePass(obs.ShardPlanName("s3ttmc", shard), x, u, opts, compact)
	// One full-dimension spill buffer per leaf, exactly the single-engine
	// owner-computes charge — unless the whole run has a single leaf, which
	// owns every row and spills nothing (mirroring newSpillSet).
	var spills spillSet
	if gs.Leaves() > 1 {
		per := memguard.Float64Bytes(int64(x.Dim)*int64(cols)) + 8*int64((x.Dim+63)/64)
		spBytes := per * int64(leaves)
		if err := opts.Guard.Reserve(spBytes, "shard spill buffers"); err != nil {
			return nil, err
		}
		defer opts.Guard.Release(spBytes)
		spills.bufs = make([]*spillBuffer, leaves)
		for i := range spills.bufs {
			spills.bufs[i] = opts.Schedules.getSpill(x.Dim, cols)
		}
		pass.spills = &spills
	}

	p.Direct = make([]float64, (rowHi-rowLo)*cols)
	pass.sched, pass.leafLo, pass.leafHi = gs.sched, leafLo, leafHi
	pass.dst, pass.base, pass.cols = p.Direct, rowLo, cols
	if err := pass.run(opts); err != nil {
		// Like the single-engine path, aborted spill buffers may hold
		// partial updates: drop them to the GC instead of pooling dirty.
		return nil, err
	}

	// Extract each leaf's spill into the sparse wire form, then re-zero and
	// pool the buffers (the all-zero invariant getSpill relies on).
	for i, sp := range spills.bufs {
		ls := LeafSpill{Leaf: leafLo + i}
		for row := 0; row < x.Dim; row++ {
			if !sp.has(row) {
				continue
			}
			src := sp.row(row)
			ls.Rows = append(ls.Rows, int32(row))
			ls.Data = append(ls.Data, src...)
			for j := range src {
				src[j] = 0
			}
		}
		for j := range sp.touched {
			sp.touched[j] = 0
		}
		if len(ls.Rows) > 0 {
			p.Spills = append(p.Spills, ls)
		}
	}
	opts.Schedules.putSpill(spills.bufs)
	return p, nil
}
