package kernels

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/faultinject"
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

// reserveSpills charges the spill buffers for the largest worker count the
// guard admits, down to one worker, which needs none.
func TestReserveSpills(t *testing.T) {
	// No guard: the requested count.
	if w, release := reserveSpills(nil, 100, 10, 4); w != 4 {
		t.Fatalf("unguarded workers = %d, want 4", w)
	} else {
		release()
	}
	// Workers beyond the row count own no rows and are not charged.
	g := memguard.New(1 << 30)
	if w, release := reserveSpills(g, 3, 10, 8); w != 8 || g.Used() != spillBytes(3, 10, 3) {
		t.Fatalf("3 rows = (%d workers, %d bytes), want (8, %d)", w, g.Used(), spillBytes(3, 10, 3))
	} else {
		release()
	}

	// A budget for two spill buffers shrinks four workers to two, charges
	// the guard, and the release returns the charge.
	g = memguard.New(spillBytes(1000, 100, 2) + 1)
	w, release := reserveSpills(g, 1000, 100, 4)
	if w != 2 || g.Used() != spillBytes(1000, 100, 2) {
		t.Fatalf("tight budget = (%d workers, %d bytes), want (2, %d)", w, g.Used(), spillBytes(1000, 100, 2))
	}
	release()
	if g.Used() != 0 {
		t.Errorf("release left %d bytes charged", g.Used())
	}

	// A budget too small for any spill buffer runs one worker, uncharged.
	g = memguard.New(1 << 10)
	if w, release := reserveSpills(g, 1000, 100, 4); w != 1 || g.Used() != 0 {
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
	if w, release := reserveSpills(memguard.New(1<<30), 1000, 100, 4); w != 1 {
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
			g := memguard.New(k.fixed + spillBytes(int64(x.Dim), k.cols, fit))
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

func TestSpillBytes(t *testing.T) {
	if b := spillBytes(100, 10, 1); b != 0 {
		t.Errorf("single worker spill bytes = %d, want 0", b)
	}
	per := memguard.Float64Bytes(100*10) + 8*((100+63)/64)
	if b := spillBytes(100, 10, 3); b != 3*per {
		t.Errorf("spill bytes = %d, want %d", b, 3*per)
	}
	if b := spillBytes(1<<40, 1<<40, 64); b != 1<<62 {
		t.Errorf("overflowing spill bytes = %d, want saturation", b)
	}
}

func TestSpillSetReduce(t *testing.T) {
	if s := newSpillSet(nil, 1, 10, 3); s != nil {
		t.Fatal("single-worker spill set should be nil")
	}
	var nilSet *spillSet
	if nilSet.buffer(0) != nil {
		t.Fatal("nil spill set returned a buffer")
	}
	y := linalg.NewMatrix(5, 2)
	nilSet.reduceInto(y, 2, nil, nil, nil) // must be a no-op
	var cache ScheduleCache
	s := newSpillSet(&cache, 3, 5, 2)
	s.buffer(0).add(1, 2, []float64{1, 1})
	s.buffer(2).add(1, 1, []float64{0.5, 0})
	s.buffer(1).add(4, -1, []float64{1, 2})
	if err := s.reduceInto(y, 3, &cache, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0, 0}, {2.5, 2}, {0, 0}, {0, 0}, {-1, -2}}
	for i, row := range want {
		for j, v := range row {
			if y.At(i, j) != v {
				t.Fatalf("y[%d,%d] = %v, want %v", i, j, y.At(i, j), v)
			}
		}
	}
	// Reduction retires the buffers into the cache pool fully zeroed, so
	// the next set reuses them without reallocating.
	reused := newSpillSet(&cache, 3, 5, 2)
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
// goroutines at once — the shard fan-out access pattern, where P engines
// resolve schedules and recycle spill buffers against a shared cache
// simultaneously (internal/shard keeps the leaf-schedule cache global
// across its engines). Under -race this is the data-race gate; the
// assertions pin the memoization and the 64-buffer spill-pool bound.
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
