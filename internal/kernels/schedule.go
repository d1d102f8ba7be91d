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
//  3. Emissions into rows owned by *another* worker go into the leaf's
//     private spill buffer, which holds one row for each foreign row its
//     bin's non-zeros index — numbered when the schedule is built, not one
//     per output row, as Chakaravarthy et al. keep on each process only the
//     foreign rows its own non-zeros touch. A deterministic reduction pass
//     (rows split across workers, spill buffers added in worker order)
//     folds the spills into Y afterwards.
//
// Every scatter kernel runs the one loop of steps 2 and 3, ownerPass, and
// supplies only its per-non-zero emitter. When the output is recycled from
// an earlier call (S3TTMcInto), each leaf first zeroes the rows it owns,
// so the zeroing is split across the workers the same way as the writes.
//
// The schedule depends only on (tensor, worker count), so ScheduleCache
// memoizes it next to the lattice plan cache and the workspace pool:
// a Tucker run builds it once and reuses it every sweep. The guard is
// charged exactly the schedule's spill buffers; when it cannot hold them,
// reserveSpills shrinks the worker count until they fit; one worker spills
// nothing.

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
	rowStart []int32      // len workers+1; worker w owns rows [rowStart[w], rowStart[w+1])
	nzStart  []int32      // len workers+1; worker w's bin is nzOrder[nzStart[w]:nzStart[w+1]]
	nzOrder  []int32      // permutation of [0, nnz), grouped by owner, ascending within
	spills   []spillSlots // len workers; the foreign rows leaf w's bin indexes
}

// spillSlots numbers the foreign rows one leaf can spill into in ascending
// row order: slot[r-lo] is row r's spill slot, −1 where the leaf never
// spills. rows counts the slots; a leaf with none spills nothing.
type spillSlots struct {
	lo   int
	slot []int32
	rows int
}

// of returns row r's slot, −1 when the leaf never spills into r.
func (m *spillSlots) of(r int) int {
	if i := r - m.lo; i >= 0 && i < len(m.slot) {
		return int(m.slot[i])
	}
	return -1
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

	// Number each leaf's foreign rows: the rows outside its range that its
	// bin's non-zeros index. Every emitter adds only into a non-zero's own
	// index values, so these are all the rows the leaf can spill into; as
	// IOU tuples are sorted they lie past its range, and the last leaf has
	// none. A non-zero's leading index is its leaf's own row by the binning
	// above. mark[r] == w+1 records that leaf w indexes foreign row r.
	s.spills = make([]spillSlots, workers)
	mark := make([]int32, x.Dim)
	for w := 0; w < workers; w++ {
		lo, hi := s.ownedRows(w)
		first, last := x.Dim, -1
		for _, k := range s.bin(w) {
			for _, v := range x.IndexAt(int(k))[1:] {
				if r := int(v); (r < lo || r >= hi) && mark[r] != int32(w+1) {
					mark[r] = int32(w + 1)
					first, last = min(first, r), max(last, r)
				}
			}
		}
		if last < first {
			continue
		}
		m := &s.spills[w]
		m.lo, m.slot = first, make([]int32, last-first+1)
		for r := first; r <= last; r++ {
			m.slot[r-first] = -1
			if mark[r] == int32(w+1) {
				m.slot[r-first] = int32(m.rows)
				m.rows++
			}
		}
	}
	return s
}

// spillBytes is the guard charge of the schedule's spill buffers for
// cols-wide output rows: one buffer (rows plus bitmap) per leaf that
// spills, exactly what newSpillSet draws. One worker spills nothing.
func (s *schedule) spillBytes(cols int) int64 {
	var total int64
	for _, m := range s.spills {
		if m.rows > 0 {
			total = satBytes(total, spillBytes(int64(m.rows), int64(cols)))
		}
	}
	return total
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

// spillBuffer is one leaf's private accumulator for emissions into rows it
// does not own: one cols-wide row per slot of the leaf's spillSlots, which
// newSpillSet attaches when it draws the buffer. The touched bitmap, one bit
// per slot, keeps the reduction to the rows the leaf did spill into, so an
// all-zero spill row is never folded onto a −0.
type spillBuffer struct {
	slots   spillSlots
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

// row returns output row i's spill row; i must be one of the leaf's slots.
func (s *spillBuffer) row(i int) []float64 {
	j := s.slots.of(i)
	return s.data[j*s.cols : (j+1)*s.cols]
}

func (s *spillBuffer) has(i int) bool {
	j := s.slots.of(i)
	return j >= 0 && s.touched[j>>6]&(1<<uint(j&63)) != 0
}

// add accumulates scale*src into the spill row of output row i.
func (s *spillBuffer) add(i int, scale float64, src []float64) {
	j := s.slots.of(i)
	s.touched[j>>6] |= 1 << uint(j&63)
	dense.AxpyCompact(scale, src, s.data[j*s.cols:(j+1)*s.cols])
}

// spillSet is the per-leaf spill buffers of one owner-computes run plus
// the deterministic reduction folding them into the output.
type spillSet struct {
	bufs []*spillBuffer // nil for a leaf that spills nothing
}

// newSpillSet draws a buffer for every leaf of s that spills, sized to its
// slots and recycled through c when non-nil. Pooled buffers are zero by the
// reduceInto invariant, so they are ready to accumulate immediately.
func newSpillSet(c *ScheduleCache, s *schedule, cols int) *spillSet {
	if s.workers <= 1 {
		return nil // a single owner never emits into a foreign row
	}
	set := &spillSet{bufs: make([]*spillBuffer, s.workers)}
	for w, m := range s.spills {
		if m.rows > 0 {
			set.bufs[w] = c.getSpill(m.rows, cols)
			set.bufs[w].slots = m
		}
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
					if sp != nil && sp.has(i) {
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
		if sp != nil {
			clear(sp.touched)
		}
	}
	c.putSpill(s.bufs)
	return nil
}

// spillBytes is the footprint of one rows x cols spill buffer and its
// bitmap, as newSpillBuffer allocates it.
func spillBytes(rows, cols int64) int64 {
	if rows > 0 && cols > (1<<62)/rows {
		return 1 << 62
	}
	return memguard.Float64Bytes(rows*cols) + 8*((rows+63)/64)
}

// sink routes one leaf's emissions: a row the leaf owns, in [lo, hi), goes
// straight into dst, which holds the cols-wide output rows; any other row
// goes into the leaf's spill buffer, which has a slot for every such row
// its bin indexes.
type sink struct {
	lo, hi, cols int
	dst          []float64
	spill        *spillBuffer
}

// add accumulates scale*v into output row row.
func (s *sink) add(row int, scale float64, v []float64) {
	if row < s.lo || row >= s.hi {
		s.spill.add(row, scale, v)
		return
	}
	off := row * s.cols
	dense.AxpyCompact(scale, v, s.dst[off:off+s.cols])
}

// ownerPass is the one owner-computes loop behind every scatter kernel: the
// schedule's leaves run as the PerWorker plan name, one worker slot per
// leaf. Each leaf walks its bin in ascending non-zero order, ticks every
// non-zero and hands it to its worker's emitter, which adds the non-zero's
// row contributions through the leaf's sink in a fixed order. spills holds
// the leaves' buffers, nil when the run has one leaf.
//
// A kernel supplies name, emitter and, optionally, finish (the plan's
// Finish hook) and zero; scatterWorkers fills in the rest.
type ownerPass struct {
	name   string
	sched  *schedule
	dst    []float64
	cols   int
	spills *spillSet
	// zero makes each leaf clear its own rows of dst before its first
	// emission: set for a recycled output, whose rows hold the last call's
	// values. The leaves' ranges cover every row and a leaf writes dst
	// only inside its own, the spills being folded after the join, so no
	// row is written before its owner has cleared it. A fresh
	// linalg.NewMatrix is zero already.
	zero bool
	// emitter builds the emitter of worker w's leaf, on w's goroutine,
	// before the leaf's first non-zero.
	emitter func(w *exec.Worker, s *sink) func(k int) error
	finish  func(*exec.Worker)
}

func (p *ownerPass) run(opts Options) error {
	return exec.Run(opts.ExecConfig(), exec.Plan{
		Name:      p.name,
		Partition: exec.PerWorker,
		Workers:   p.sched.workers,
		Finish:    p.finish,
		Body: func(wk *exec.Worker, leaf, _ int) error {
			s := &sink{cols: p.cols, dst: p.dst, spill: p.spills.buffer(leaf)}
			s.lo, s.hi = p.sched.ownedRows(leaf)
			if p.zero {
				clear(p.dst[s.lo*p.cols : s.hi*p.cols])
			}
			emit := p.emitter(wk, s)
			for _, k := range p.sched.bin(leaf) {
				if err := wk.Tick(int(k)); err != nil {
					return err
				}
				if err := emit(int(k)); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// scatter is the owner-computes run of a kernel with output y: it
// resolves the schedule (its worker count clamped to the non-zeros, then
// shrunk until the spill buffers fit the guard) and runs scatterWorkers.
func scatter(x *spsym.Tensor, opts Options, y *linalg.Matrix, pass ownerPass) error {
	nnz := x.NNZ()
	if nnz == 0 {
		if pass.zero {
			clear(y.Data) // no leaf runs to clear its rows
		}
		return nil
	}
	// Cheap early exit before the schedule is built or spill bytes are
	// reserved; exec.Run re-checks before spawning workers.
	if exec.IsCanceled(opts.Ctx) {
		return exec.Cause(opts.Ctx)
	}
	_, sched, release := reserveSpills(opts.Guard, opts.Schedules, x, y.Cols, min(opts.workers(), nnz))
	defer release()
	return scatterWorkers(opts, sched, y, pass)
}

// scatterWorkers draws sched's spill buffers, runs pass over every leaf,
// writing into y, and then folds the spills into y with schedule.reduce.
func scatterWorkers(opts Options, sched *schedule, y *linalg.Matrix, pass ownerPass) error {
	pass.sched = sched
	pass.dst, pass.cols = y.Data, y.Cols
	pass.spills = newSpillSet(opts.Schedules, sched, y.Cols)
	if err := pass.run(opts); err != nil {
		// The spill buffers may hold partial updates from aborted workers;
		// skipping reduceInto leaves them to the GC instead of returning
		// dirty memory to the pool's all-zero free list.
		return err
	}
	return pass.spills.reduceInto(y, sched.workers, opts.Schedules, opts.Exec, opts.Obs)
}

// reserveSpills draws x's schedule for the requested worker count from c,
// charges its spill buffers for cols-wide output rows to the guard, and
// returns the worker count the kernel runs with, the schedule, and the
// function that releases the charge. A refused reservation is retried with
// the schedule of one worker fewer, down to a single worker, which needs no
// spill buffer: a kernel never fails on spills alone, so which
// configurations fit the budget depends only on the modeled footprints of
// estimate.go. The output bits follow the returned worker count. Workers
// beyond the row count own no rows, so they are neither charged nor kept
// after a refusal.
func reserveSpills(g *memguard.Guard, c *ScheduleCache, x *spsym.Tensor, cols, workers int) (int, *schedule, func()) {
	for {
		s := c.get(x, workers)
		if s.workers <= 1 {
			return 1, s, func() {}
		}
		bytes := s.spillBytes(cols)
		if g.Reserve(bytes, "owner-computes spill buffers") == nil {
			return workers, s, func() { g.Release(bytes) }
		}
		workers = s.workers - 1
	}
}
