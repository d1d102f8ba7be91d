package kernels

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/hypergraph"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// Property: a schedule is a valid owner-computes work assignment — the row
// partition tiles [0, dim), every non-zero appears in exactly one bin, the
// bin is the one owning the non-zero's leading row, and bins preserve
// ascending non-zero order.
func TestBuildScheduleProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(4)
		dim := 2 + rng.Intn(12)
		nnz := rng.Intn(40)
		workers := 1 + rng.Intn(10)
		x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal})
		if err != nil {
			return false
		}
		s := buildSchedule(x, workers)
		if s.workers < 1 || s.workers > workers || s.workers > dim {
			return false
		}
		if s.rowStart[0] != 0 || int(s.rowStart[s.workers]) != dim {
			return false
		}
		for w := 0; w < s.workers; w++ {
			if s.rowStart[w] > s.rowStart[w+1] {
				return false
			}
		}
		seen := make([]int, x.NNZ())
		for w := 0; w < s.workers; w++ {
			rowLo, rowHi := s.ownedRows(w)
			prev := int32(-1)
			for _, k := range s.bin(w) {
				if k <= prev { // ascending ⇒ also no duplicates within a bin
					return false
				}
				prev = k
				seen[k]++
				lead := int(x.Index[int(k)*x.Order])
				if lead < rowLo || lead >= rowHi {
					return false
				}
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScheduleCacheMemoizes(t *testing.T) {
	x, _ := randomCase(t, 3, 8, 20, 2, 17)
	var cache ScheduleCache
	s1 := cache.get(x, 4)
	s2 := cache.get(x, 4)
	if s1 != s2 {
		t.Error("same (tensor, workers) key rebuilt the schedule")
	}
	s3 := cache.get(x, 2)
	if s3 == s1 {
		t.Error("different worker count returned the same schedule")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", cache.Len())
	}
	// A structurally changed tensor (different non-zero count) under the
	// same key must be detected and the entry rebuilt.
	x.Append([]int{0, 1, 2}, 1.0)
	x.Canonicalize()
	s4 := cache.get(x, 4)
	if s4 == s1 {
		t.Error("stale schedule returned after the tensor grew")
	}
	if len(s4.nzOrder) != x.NNZ() {
		t.Errorf("rebuilt schedule has %d non-zeros, want %d", len(s4.nzOrder), x.NNZ())
	}
	// A nil cache still produces valid schedules.
	var nilCache *ScheduleCache
	if s := nilCache.get(x, 3); len(s.nzOrder) != x.NNZ() {
		t.Error("nil cache returned an invalid schedule")
	}
	if nilCache.Len() != 0 {
		t.Error("nil cache reports non-zero length")
	}
}

// reserveSpills charges the exact spill buffers of the largest worker
// count the guard admits, down to one worker, which needs none.
func TestReserveSpills(t *testing.T) {
	const cols = 100
	x, _ := randomCase(t, 3, 40, 200, 2, 19)
	charge := func(workers int) int64 { return buildSchedule(x, workers).spillBytes(cols) }
	if c2, c3, c4 := charge(2), charge(3), charge(4); c2 == 0 || c3 <= c2 || c4 <= c2 {
		t.Fatalf("charges at 2, 3, 4 workers = %d, %d, %d; the shrink case needs 0 < c2 < c3, c4", c2, c3, c4)
	}

	// No guard: the requested count, its schedule drawn once into the cache.
	var cache ScheduleCache
	if w, s, release := reserveSpills(nil, &cache, x, cols, 4); w != 4 || s.workers != 4 || cache.Len() != 1 {
		t.Fatalf("unguarded = (%d workers, %d leaves, %d cached), want (4, 4, 1)", w, s.workers, cache.Len())
	} else {
		release()
	}
	// Workers beyond the row count own no rows and are not charged.
	small, _ := randomCase(t, 3, 3, 10, 2, 19)
	g := memguard.New(1 << 30)
	if w, s, release := reserveSpills(g, nil, small, 10, 8); w != 8 || s.workers != 3 || g.Used() != s.spillBytes(10) {
		t.Fatalf("3 rows = (%d workers, %d leaves, %d bytes), want (8, 3, %d)", w, s.workers, g.Used(), s.spillBytes(10))
	} else {
		release()
	}

	// A budget for the two-worker schedule's buffers shrinks four workers to
	// two, charges the guard exactly that, and the release returns it.
	g = memguard.New(charge(2) + 1)
	w, s, release := reserveSpills(g, nil, x, cols, 4)
	if w != 2 || s.workers != 2 || g.Used() != charge(2) {
		t.Fatalf("tight budget = (%d workers, %d bytes), want (2, %d)", w, g.Used(), charge(2))
	}
	release()
	if g.Used() != 0 {
		t.Errorf("release left %d bytes charged", g.Used())
	}

	// A budget too small for any spill buffer runs one worker, uncharged.
	g = memguard.New(1 << 10)
	if w, s, release := reserveSpills(g, nil, x, cols, 4); w != 1 || s.workers != 1 || g.Used() != 0 {
		t.Fatalf("tiny budget = (%d workers, %d bytes), want (1, 0)", w, g.Used())
	} else {
		release()
	}

	// A guard that refuses every spill reservation still leaves one worker.
	disarm := faultinject.Arm(faultinject.SiteGuardReserve, func(what any) error {
		if what == "owner-computes spill buffers" {
			return errors.New("injected rejection")
		}
		return nil
	})
	defer disarm()
	if w, _, release := reserveSpills(memguard.New(1<<30), nil, x, cols, 4); w != 1 {
		t.Fatalf("rejecting guard = %d workers, want 1", w)
	} else {
		release()
	}
}

// TestSpillsShrinkToFit runs the scatter kernels under a guard that admits
// their output and per-worker workspaces at four workers but the spill
// buffers of only two: each must succeed at two workers, bit-identical to
// an explicit two-worker run, and return every reserved byte.
func TestSpillsShrinkToFit(t *testing.T) {
	const requested, fit = 4, 2
	x, u := randomCase(t, 4, 9, 45, 3, 2027)
	r := u.Cols
	for _, k := range []struct {
		name  string
		plan  string
		fixed int64 // output plus per-worker workspace charge at requested workers
		cols  int64 // output width the spill buffers are sized by
		run   func(Options) (*linalg.Matrix, error)
	}{
		{"SymProp", "s3ttmc.owner", EstimateSymPropBytes(x, r, requested), dense.Count(x.Order-1, r),
			func(o Options) (*linalg.Matrix, error) { return S3TTMcSymProp(x, u, o) }},
		{"UCOO", "ucoo.owner", EstimateUCOOBytes(x, r, requested), dense.Pow64(int64(r), x.Order-1),
			func(o Options) (*linalg.Matrix, error) { return S3TTMcUCOO(x, u, o) }},
		{"Nary", "nary.scatter.owner", EstimateNaryBytes(x, r, requested), int64(r),
			func(o Options) (*linalg.Matrix, error) {
				res, err := NaryTTMcTC(x, u, o)
				if err != nil {
					return nil, err
				}
				return res.A, nil
			}},
	} {
		t.Run(k.name, func(t *testing.T) {
			g := memguard.New(k.fixed + buildSchedule(x, fit).spillBytes(int(k.cols)))
			m := obs.New()
			got, err := k.run(Options{Workers: requested, Guard: g, Obs: m})
			if err != nil {
				t.Fatalf("guarded run: %v", err)
			}
			if g.Used() != 0 {
				t.Errorf("guard still holds %d bytes after the kernel returned", g.Used())
			}
			var spans int64
			for _, pm := range m.Snapshot() {
				if pm.Name == k.plan {
					spans = pm.WorkerSpans
				}
			}
			if spans != fit {
				t.Errorf("%s ran %d workers, want %d", k.plan, spans, fit)
			}
			want, err := k.run(Options{Workers: fit})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data {
				if got.Data[i] != v {
					t.Fatalf("bit mismatch at %d: got %x, want %x", i, got.Data[i], v)
				}
			}
		})
	}
}

// A spill buffer's footprint is its rows plus one bitmap bit per row, and
// a schedule charges exactly one buffer per leaf that spills.
func TestSpillBytes(t *testing.T) {
	if b, want := spillBytes(100, 10), memguard.Float64Bytes(100*10)+8*((100+63)/64); b != want {
		t.Errorf("spill bytes = %d, want %d", b, want)
	}
	if b := spillBytes(1<<40, 1<<40); b != 1<<62 {
		t.Errorf("overflowing spill bytes = %d, want saturation", b)
	}
	x, _ := randomCase(t, 3, 30, 120, 2, 23)
	if b := buildSchedule(x, 1).spillBytes(10); b != 0 {
		t.Errorf("single worker spill bytes = %d, want 0", b)
	}
	s := buildSchedule(x, 3)
	var want int64
	for _, m := range s.spills {
		if m.rows > 0 {
			want += spillBytes(int64(m.rows), 10)
		}
	}
	if b := s.spillBytes(10); b != want || b == 0 {
		t.Errorf("three-worker spill bytes = %d, want %d (non-zero)", b, want)
	}
}

// slotsFor numbers the given ascending foreign rows as buildSchedule does.
func slotsFor(rows ...int) spillSlots {
	m := spillSlots{lo: rows[0], slot: make([]int32, rows[len(rows)-1]-rows[0]+1)}
	for i := range m.slot {
		m.slot[i] = -1
	}
	for _, r := range rows {
		m.slot[r-m.lo] = int32(m.rows)
		m.rows++
	}
	return m
}

func TestSpillSetReduce(t *testing.T) {
	if s := newSpillSet(nil, &schedule{workers: 1, spills: make([]spillSlots, 1)}, 3); s != nil {
		t.Fatal("single-worker spill set should be nil")
	}
	var nilSet *spillSet
	if nilSet.buffer(0) != nil {
		t.Fatal("nil spill set returned a buffer")
	}
	y := linalg.NewMatrix(6, 2)
	nilSet.reduceInto(y, 2, nil, nil, nil) // must be a no-op
	// Leaf 0 may spill into rows 1 and 3, leaf 2 into row 1, leaf 1 into
	// rows 4 and 5; leaf 3 spills nothing and draws no buffer.
	sched := &schedule{workers: 4, spills: []spillSlots{slotsFor(1, 3), slotsFor(4, 5), slotsFor(1), {}}}
	var cache ScheduleCache
	s := newSpillSet(&cache, sched, 2)
	if s.buffer(3) != nil {
		t.Fatal("a leaf without foreign rows drew a spill buffer")
	}
	for w, rows := range []int{2, 2, 1} {
		if got := len(s.buffer(w).data); got != rows*2 {
			t.Fatalf("leaf %d buffer holds %d values, want %d", w, got, rows*2)
		}
	}
	s.buffer(0).add(1, 2, []float64{1, 1})
	s.buffer(2).add(1, 1, []float64{0.5, 0})
	s.buffer(1).add(4, -1, []float64{1, 2})
	// Row 3 is a slot of leaf 0 it never spilled into: the reduction skips
	// it, so y's −0 there keeps its sign.
	y.Set(3, 0, math.Copysign(0, -1))
	if err := s.reduceInto(y, 4, &cache, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0, 0}, {2.5, 2}, {0, 0}, {0, 0}, {-1, -2}, {0, 0}}
	for i, row := range want {
		for j, v := range row {
			if y.At(i, j) != v {
				t.Fatalf("y[%d,%d] = %v, want %v", i, j, y.At(i, j), v)
			}
		}
	}
	if !math.Signbit(y.At(3, 0)) {
		t.Fatal("an untouched spill slot was folded onto a −0")
	}
	// Reduction retires the buffers into the cache pool fully zeroed, so
	// the next set reuses them without reallocating.
	reused := newSpillSet(&cache, sched, 2)
	for w := 0; w < 3; w++ {
		buf := reused.buffer(w)
		for _, v := range buf.data {
			if v != 0 {
				t.Fatal("pooled spill buffer not zeroed")
			}
		}
		for _, word := range buf.touched {
			if word != 0 {
				t.Fatal("pooled spill buffer bitmap not cleared")
			}
		}
	}
	if cache.getSpill(7, 3).cols != 3 {
		t.Fatal("mismatched shape must allocate a fresh buffer")
	}
}

// walmartStandIn is the input of the hoqri-walmart benchmark workload: the
// walmart-trips planted hypergraph scaled to I = 1,000 and 400 hyperedges,
// order 8, padded with a dummy node.
func walmartStandIn(tb testing.TB, seed int64) *spsym.Tensor {
	tb.Helper()
	spec, err := hypergraph.Lookup("walmart-trips")
	if err != nil {
		tb.Fatal(err)
	}
	spec.Dim, spec.UNNZ = 1000, 400
	x, err := spec.GenerateTensor(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// TestSpillBuffersSizedToForeignRows holds each leaf's spill buffer to the
// foreign rows its bin can touch: exactly one row per distinct index value
// outside the leaf's range among its non-zeros, numbered in ascending row
// order, none for the last leaf, and a guard charge equal to the bytes the
// buffers allocate. On the hoqri-walmart benchmark's stand-in (I = 1,000,
// order 8, 400 non-zeros) the spill rows stay under a quarter of I, where
// one buffer per leaf used to hold all of them.
func TestSpillBuffersSizedToForeignRows(t *testing.T) {
	padded, _ := paddedCase(t, 8, 16, 150, 6, 85)
	walmart := walmartStandIn(t, 1)
	for _, c := range []struct {
		name    string
		x       *spsym.Tensor
		cols    int
		workers int
	}{
		{"order8r6-padded/workers=2", padded, int(dense.Count(7, 6)), 2},
		{"order8r6-padded/workers=3", padded, int(dense.Count(7, 6)), 3},
		{"order8r6-padded/workers=4", padded, int(dense.Count(7, 6)), 4},
		{"walmart-stand-in/workers=2", walmart, int(dense.Count(7, 10)), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := buildSchedule(c.x, c.workers)
			if s.workers != c.workers {
				t.Fatalf("schedule has %d leaves, want %d", s.workers, c.workers)
			}
			set := newSpillSet(nil, s, c.cols)
			var total int
			var allocated int64
			for w := 0; w < s.workers; w++ {
				lo, hi := s.ownedRows(w)
				foreign := map[int]bool{}
				for _, k := range s.bin(w) {
					for _, v := range c.x.IndexAt(int(k)) {
						if r := int(v); r < lo || r >= hi {
							foreign[r] = true
						}
					}
				}
				m := s.spills[w]
				if m.rows != len(foreign) {
					t.Errorf("leaf %d has %d spill rows, its bin touches %d foreign rows", w, m.rows, len(foreign))
				}
				next := 0
				for r := 0; r < c.x.Dim; r++ {
					got := m.of(r)
					if !foreign[r] {
						if got != -1 {
							t.Fatalf("leaf %d: row %d, which its bin never touches, has slot %d", w, r, got)
						}
						continue
					}
					if got != next {
						t.Fatalf("leaf %d: foreign row %d has slot %d, want %d (ascending)", w, r, got, next)
					}
					next++
				}
				buf := set.buffer(w)
				if (buf == nil) != (len(foreign) == 0) {
					t.Fatalf("leaf %d: buffer drawn = %v with %d foreign rows", w, buf != nil, len(foreign))
				}
				if buf != nil {
					if len(buf.data) != len(foreign)*c.cols {
						t.Errorf("leaf %d buffer holds %d values, want %d rows of %d", w, len(buf.data), len(foreign), c.cols)
					}
					allocated += 8*int64(len(buf.data)) + 8*int64(len(buf.touched))
				}
				total += len(foreign)
			}
			if last := s.spills[s.workers-1]; last.rows != 0 {
				t.Errorf("the last leaf has %d spill rows, want none", last.rows)
			}
			g := memguard.New(1 << 40)
			_, _, release := reserveSpills(g, nil, c.x, c.cols, c.workers)
			if g.Used() != allocated || allocated != s.spillBytes(c.cols) {
				t.Errorf("guard charge %d, schedule charge %d, buffers allocate %d bytes", g.Used(), s.spillBytes(c.cols), allocated)
			}
			release()
			if c.x == walmart && 4*total > c.x.Dim {
				t.Errorf("%d spill rows on I = %d: above a quarter of I", total, c.x.Dim)
			}
			t.Logf("%d spill rows, %d bytes (one buffer of all rows per leaf: %d bytes)",
				total, allocated, int64(s.workers)*spillBytes(int64(c.x.Dim), int64(c.cols)))
		})
	}
}

// All four scatter kernels must produce tolerance-identical results across
// worker counts, and each must be bitwise-deterministic run to run at a
// fixed worker count.
func TestScatterWorkerCountsAgree(t *testing.T) {
	x, u := randomCase(t, 4, 9, 45, 3, 2026)

	type kernel struct {
		name string
		run  func(Options) (*linalg.Matrix, error)
	}
	kernelsUnderTest := []kernel{
		{"SymProp", func(o Options) (*linalg.Matrix, error) { return S3TTMcSymProp(x, u, o) }},
		{"CSS", func(o Options) (*linalg.Matrix, error) { return S3TTMcCSS(x, u, o) }},
		{"UCOO", func(o Options) (*linalg.Matrix, error) { return S3TTMcUCOO(x, u, o) }},
		{"Nary", func(o Options) (*linalg.Matrix, error) {
			res, err := NaryTTMcTC(x, u, o)
			if err != nil {
				return nil, err
			}
			return res.A, nil
		}},
	}

	for _, k := range kernelsUnderTest {
		base, err := k.run(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := k.run(Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", k.name, workers, err)
			}
			if d := linalg.MaxAbsDiff(base, got); d > 1e-10 {
				t.Errorf("%s workers=%d differs from sequential by %v", k.name, workers, d)
			}
		}
		// Determinism: two runs at the same worker count must agree
		// bitwise (fixed partition, fixed reduction order).
		r1, err := k.run(Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := k.run(Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range r1.Data {
			if r2.Data[i] != v {
				t.Fatalf("%s: owner-computes not bitwise deterministic at %d", k.name, i)
			}
		}
	}
}

// TestScheduleCacheConcurrentEngines hammers one ScheduleCache from many
// goroutines at once, as concurrent kernel calls sharing one cache do
// (the cache is documented safe for it). Under -race this is the
// data-race gate; the assertions pin the memoization and the 64-buffer
// spill-pool bound.
func TestScheduleCacheConcurrentEngines(t *testing.T) {
	x, _ := randomCase(t, 3, 10, 30, 2, 41)
	x2, _ := randomCase(t, 3, 12, 40, 2, 42)
	var cache ScheduleCache
	const goroutines = 8
	const iters = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if s := cache.get(x, 4); len(s.nzOrder) != x.NNZ() || s.dim != x.Dim {
					t.Errorf("goroutine %d: invalid schedule from concurrent get", g)
					return
				}
				cache.get(x2, 1+i%3)
				// Mixed recycle traffic: pooled round trips plus a stream of
				// fresh buffers that tries to blow past the pool bound.
				a, b := cache.getSpill(x.Dim, 6), cache.getSpill(x.Dim, 6)
				cache.putSpill([]*spillBuffer{a, b, newSpillBuffer(x.Dim, 6), nil})
			}
		}(g)
	}
	wg.Wait()
	// Exactly one entry per (tensor, workers) key ever requested.
	if n := cache.Len(); n > 4 {
		t.Errorf("cache holds %d schedules for 4 distinct keys", n)
	}
	if s1, s2 := cache.get(x, 4), cache.get(x, 4); s1 != s2 {
		t.Error("memoization broken after concurrent population")
	}
	// The spill pool must honor its bound even though the workload pushed
	// ~3 buffers per iteration per goroutine at it.
	cache.mu.Lock()
	free := len(cache.spillFree)
	cache.mu.Unlock()
	if free > 64 {
		t.Errorf("spill pool holds %d buffers, bound is 64", free)
	}
	if free == 0 {
		t.Error("spill pool empty after heavy recycle traffic")
	}
}

// The schedule cache must be consulted by the kernels: a shared cache across
// repeated calls holds exactly one entry per worker count used.
func TestKernelsUseScheduleCache(t *testing.T) {
	x, u := randomCase(t, 3, 8, 25, 2, 31)
	var scheds ScheduleCache
	opts := Options{Workers: 4, Schedules: &scheds}
	for i := 0; i < 3; i++ {
		if _, err := S3TTMcSymProp(x, u, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := S3TTMcUCOO(x, u, opts); err != nil {
			t.Fatal(err)
		}
	}
	// All calls share (tensor, workers=4) — possibly clamped identically —
	// so at most a couple of entries may exist, and re-running must not
	// grow the cache.
	n := scheds.Len()
	if n == 0 {
		t.Fatal("kernels did not populate the schedule cache")
	}
	if _, err := S3TTMcSymProp(x, u, opts); err != nil {
		t.Fatal(err)
	}
	if scheds.Len() != n {
		t.Errorf("cache grew from %d to %d on a repeated call", n, scheds.Len())
	}
}
