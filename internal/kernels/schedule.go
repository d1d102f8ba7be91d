package kernels

// This file implements the owner-computes accumulation scheduler shared by
// every scatter kernel in the package (S³TTMc SymProp/CSS, UCOO, the n-ary
// TTMcTC). The parallelization problem is always the same: workers stream
// IOU non-zeros, and each non-zero emits an update into up to N output rows
// (one per distinct index value). Owner-computes scheduling makes those
// updates synchronization-free, following the distributed-Tucker
// decomposition of Chakaravarthy et al. (non-zeros are assigned to the
// process that owns their output row) combined with the classic
// shared-memory privatize-and-reduce fallback:
//
//  1. Output rows are partitioned into one contiguous range per worker,
//     balanced by the number of non-zeros whose *leading* (smallest) index
//     falls in the range.
//  2. Non-zeros are binned to the worker owning their leading row, so each
//     worker's slot-0 emission — and, because IOU tuples are sorted and
//     tensors cluster, many of the others — lands in rows it owns and is
//     written lock-free directly into Y.
//  3. Emissions into rows owned by *another* worker go into a private
//     per-worker spill buffer; a deterministic reduction pass (rows split
//     across workers, spill buffers added in worker order) folds the spills
//     into Y afterwards.
//
// The schedule depends only on (tensor, worker count), so ScheduleCache
// memoizes it next to the lattice plan cache and the workspace pool:
// a Tucker run builds it once and reuses it every sweep. When the memory
// guard cannot hold one spill buffer per worker, reserveSpills shrinks the
// worker count until they fit; one worker spills nothing.

import (
	"sync"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// schedule is the owner-computes work assignment for one (tensor, workers)
// pair: a contiguous row partition plus the non-zeros binned by the owner
// of their leading row. Bins preserve ascending non-zero order (the binning
// pass is a stable counting sort), which keeps per-row accumulation order
// deterministic and the row-access pattern as sorted as the input.
type schedule struct {
	workers  int
	dim      int
	rowStart []int32 // len workers+1; worker w owns rows [rowStart[w], rowStart[w+1])
	nzStart  []int32 // len workers+1; worker w's bin is nzOrder[nzStart[w]:nzStart[w+1]]
	nzOrder  []int32 // permutation of [0, nnz), grouped by owner, ascending within
}

// ownedRows returns worker w's half-open row range.
func (s *schedule) ownedRows(w int) (int, int) {
	return int(s.rowStart[w]), int(s.rowStart[w+1])
}

// bin returns worker w's non-zero indices.
func (s *schedule) bin(w int) []int32 {
	return s.nzOrder[s.nzStart[w]:s.nzStart[w+1]]
}

// buildSchedule partitions rows and bins non-zeros for the given worker
// count. workers is clamped to [1, dim]: a worker owning no rows could own
// no non-zeros either.
func buildSchedule(x *spsym.Tensor, workers int) *schedule {
	nnz := x.NNZ()
	if workers > x.Dim {
		workers = x.Dim
	}
	if workers < 1 {
		workers = 1
	}
	s := &schedule{
		workers:  workers,
		dim:      x.Dim,
		rowStart: make([]int32, workers+1),
		nzStart:  make([]int32, workers+1),
		nzOrder:  make([]int32, nnz),
	}

	// Per-row counts of leading indices (tuples are sorted, so the leading
	// index is entry 0) and their prefix sum.
	counts := make([]int32, x.Dim)
	for k := 0; k < nnz; k++ {
		counts[x.Index[k*x.Order]]++
	}

	// Partition rows so cumulative leading-row counts are balanced: the
	// w-th boundary is the first row where the prefix reaches w/workers of
	// the total. A single row's non-zeros cannot be split across owners,
	// so heavy rows bound the achievable balance.
	s.rowStart[workers] = int32(x.Dim)
	var prefix int64
	w := 1
	for r := 0; r < x.Dim && w < workers; r++ {
		prefix += int64(counts[r])
		for w < workers && prefix >= int64(w)*int64(nnz)/int64(workers) {
			s.rowStart[w] = int32(r + 1)
			w++
		}
	}
	for ; w < workers; w++ {
		s.rowStart[w] = int32(x.Dim)
	}

	// rowOwner is the scratch inverse of the partition, used once for the
	// stable counting sort below.
	rowOwner := make([]int32, x.Dim)
	for w := 0; w < workers; w++ {
		for r := s.rowStart[w]; r < s.rowStart[w+1]; r++ {
			rowOwner[r] = int32(w)
		}
	}
	binLen := make([]int32, workers)
	for k := 0; k < nnz; k++ {
		binLen[rowOwner[x.Index[k*x.Order]]]++
	}
	for w := 0; w < workers; w++ {
		s.nzStart[w+1] = s.nzStart[w] + binLen[w]
	}
	next := append([]int32(nil), s.nzStart[:workers]...)
	for k := 0; k < nnz; k++ {
		o := rowOwner[x.Index[k*x.Order]]
		s.nzOrder[next[o]] = int32(k)
		next[o]++
	}
	return s
}

// ScheduleCache memoizes owner-computes schedules across kernel calls,
// keyed by (tensor, worker count) — the scheduling analog of css.Cache for
// lattice plans. The Tucker drivers create one per run so every sweep
// reuses the binning pass. Entries assume the tensor is not mutated while
// cached (the same contract under which the kernels share it across
// goroutines); a changed non-zero count or dimension is detected and the
// entry rebuilt, in-place edits are not.
type ScheduleCache struct {
	mu      sync.Mutex
	entries map[scheduleKey]*schedule
	// spillFree recycles zeroed spill buffers across kernel calls, so a
	// Tucker sweep allocates them once instead of once per mode product.
	spillFree []*spillBuffer
}

type scheduleKey struct {
	tensor  *spsym.Tensor
	workers int
}

// get returns the memoized schedule for (x, workers), building it on first
// use. A nil cache builds a fresh schedule per call.
func (c *ScheduleCache) get(x *spsym.Tensor, workers int) *schedule {
	if c == nil {
		return buildSchedule(x, workers)
	}
	key := scheduleKey{tensor: x, workers: workers}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.entries[key]; ok && len(s.nzOrder) == x.NNZ() && s.dim == x.Dim {
		return s
	}
	s := buildSchedule(x, workers)
	if c.entries == nil {
		c.entries = make(map[scheduleKey]*schedule)
	}
	c.entries[key] = s
	return s
}

// Len reports the number of memoized schedules (for tests).
func (c *ScheduleCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// getSpill returns a zeroed spill buffer of the requested shape, reusing a
// pooled one when available. A nil cache always allocates.
func (c *ScheduleCache) getSpill(rows, cols int) *spillBuffer {
	if c != nil {
		c.mu.Lock()
		for i, b := range c.spillFree {
			if b.cols == cols && len(b.data) == rows*cols {
				last := len(c.spillFree) - 1
				c.spillFree[i] = c.spillFree[last]
				c.spillFree = c.spillFree[:last]
				c.mu.Unlock()
				return b
			}
		}
		c.mu.Unlock()
	}
	return newSpillBuffer(rows, cols)
}

// putSpill returns zeroed buffers to the pool, keeping at most a bounded
// number so transient worker counts do not pin memory forever.
func (c *ScheduleCache) putSpill(bufs []*spillBuffer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, b := range bufs {
		if b != nil && len(c.spillFree) < 64 {
			c.spillFree = append(c.spillFree, b)
		}
	}
	c.mu.Unlock()
}

// spillBuffer is one worker's private accumulator for emissions into rows
// it does not own. The touched bitmap lets the reduction skip the (typically
// many) rows a worker never spilled into without scanning their values.
type spillBuffer struct {
	cols    int
	data    []float64
	touched []uint64
}

func newSpillBuffer(rows, cols int) *spillBuffer {
	return &spillBuffer{
		cols:    cols,
		data:    make([]float64, rows*cols),
		touched: make([]uint64, (rows+63)/64),
	}
}

func (s *spillBuffer) row(i int) []float64 {
	return s.data[i*s.cols : (i+1)*s.cols]
}

func (s *spillBuffer) has(i int) bool {
	return s.touched[i>>6]&(1<<uint(i&63)) != 0
}

// add accumulates scale*src into spill row i.
func (s *spillBuffer) add(i int, scale float64, src []float64) {
	s.touched[i>>6] |= 1 << uint(i&63)
	dense.AxpyCompact(scale, src, s.row(i))
}

// spillSet is the per-worker spill buffers of one owner-computes run plus
// the deterministic reduction folding them into the output.
type spillSet struct {
	bufs []*spillBuffer
}

// newSpillSet draws one buffer per worker, recycled through c when non-nil.
// Pooled buffers are zero by the reduceInto invariant, so they are ready to
// accumulate immediately.
func newSpillSet(c *ScheduleCache, workers, rows, cols int) *spillSet {
	if workers <= 1 {
		return nil // a single owner never emits into a foreign row
	}
	set := &spillSet{bufs: make([]*spillBuffer, workers)}
	for w := range set.bufs {
		set.bufs[w] = c.getSpill(rows, cols)
	}
	return set
}

func (s *spillSet) buffer(w int) *spillBuffer {
	if s == nil {
		return nil
	}
	return s.bufs[w]
}

// reduceInto folds every spill buffer into y and retires the set, running
// as an engine plan on the same pool as the compute phase. Rows are split
// statically across the same worker count, and each row adds its spill
// contributions in worker order, so results are deterministic for a fixed
// (tensor, workers) configuration regardless of the band split. The plan
// carries no context on purpose: a reduction either completes or fails
// (panic), never half-cancels, keeping the spill-zeroing invariant simple.
// Each spill row is re-zeroed as it is folded and the buffers handed back
// to c's pool, restoring the all-zero invariant newSpillSet relies on; on
// failure the buffers are dropped to the GC instead of pooled dirty.
func (s *spillSet) reduceInto(y *linalg.Matrix, workers int, c *ScheduleCache, pool *exec.Pool, m *obs.Metrics) error {
	if s == nil {
		return nil
	}
	err := exec.Run(exec.Config{Workers: workers, Pool: pool, Metrics: m}, exec.Plan{
		Name:  "schedule.reduce",
		Items: y.Rows,
		Body: func(_ *exec.Worker, lo, hi int) error {
			//symlint:tickpoll the reduction carries no context by design (see doc above): it either completes or fails, never half-cancels, preserving the spill-zeroing invariant
			for i := lo; i < hi; i++ {
				dst := y.Row(i)
				for _, sp := range s.bufs {
					if sp.has(i) {
						src := sp.row(i)
						dense.AxpyCompact(1, src, dst)
						for j := range src {
							src[j] = 0
						}
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	for _, sp := range s.bufs {
		for i := range sp.touched {
			sp.touched[i] = 0
		}
	}
	c.putSpill(s.bufs)
	return nil
}

// spillBytes is the guard charge of an owner-computes run: one rows x cols
// buffer (plus bitmap) per worker. A single worker spills nothing.
func spillBytes(rows, cols int64, workers int) int64 {
	if workers <= 1 {
		return 0
	}
	if rows > 0 && cols > (1<<62)/rows {
		return 1 << 62
	}
	per := memguard.Float64Bytes(rows*cols) + 8*((rows+63)/64)
	total := per * int64(workers)
	if per > 0 && total/per != int64(workers) {
		return 1 << 62
	}
	return total
}

// reserveSpills charges the owner-computes spill buffers of a rows x cols
// output to the guard and returns the worker count the kernel runs with,
// with the function that releases the charge. A refused reservation is
// retried with one worker fewer, down to a single worker, which needs no
// spill buffer: a kernel never fails on spills alone, so which
// configurations fit the budget depends only on the modeled footprints of
// estimate.go. The output bits follow the returned worker count. Workers
// beyond the row count own no rows, so they are neither charged nor kept
// after a refusal.
func reserveSpills(g *memguard.Guard, rows, cols, workers int) (int, func()) {
	for ; workers > 1; workers = min(workers, rows) - 1 {
		bytes := spillBytes(int64(rows), int64(cols), min(workers, rows))
		if g.Reserve(bytes, "owner-computes spill buffers") == nil {
			return workers, func() { g.Release(bytes) }
		}
	}
	return 1, func() {}
}
