package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/obs"
)

// checkGoroutines fails the test if goroutines leaked past the pool's
// teardown (pooled workers must exit on Close; transient workers must have
// joined before Run/For/Chunks returns).
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

func TestChunkRange(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 3}, {1, 1}, {5, 2}, {7, 3}, {8, 8}, {100, 7}, {64, 1},
	} {
		covered := make([]int, tc.n)
		prevHi := 0
		for w := 0; w < tc.workers; w++ {
			lo, hi := ChunkRange(tc.n, tc.workers, w)
			if lo != prevHi {
				t.Fatalf("n=%d workers=%d w=%d: lo=%d want %d (contiguity)", tc.n, tc.workers, w, lo, prevHi)
			}
			prevHi = hi
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d workers=%d: ranges end at %d, want %d", tc.n, tc.workers, prevHi, tc.n)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: item %d covered %d times", tc.n, tc.workers, i, c)
			}
		}
		// Balance: shares differ by at most one item.
		if tc.workers > 0 && tc.n > 0 {
			minSz, maxSz := tc.n, 0
			for w := 0; w < tc.workers; w++ {
				lo, hi := ChunkRange(tc.n, tc.workers, w)
				if hi-lo < minSz {
					minSz = hi - lo
				}
				if hi-lo > maxSz {
					maxSz = hi - lo
				}
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d workers=%d: unbalanced shares min=%d max=%d", tc.n, tc.workers, minSz, maxSz)
			}
		}
	}
}

// newPoolCounted returns NewPool(size) and the number of goroutines it
// left running, counted as a runtime.NumGoroutine delta across the call.
func newPoolCounted(size int) (*Pool, int) {
	before := runtime.NumGoroutine()
	p := NewPool(size)
	return p, runtime.NumGoroutine() - before
}

func TestPoolLifecycle(t *testing.T) {
	checkGoroutines(t)
	p, resident := newPoolCounted(3)
	if resident != 3 {
		t.Fatalf("NewPool(3) left %d goroutines running, want 3", resident)
	}
	var hits atomic.Int64
	p.dispatch(3, func(int) { hits.Add(1) })
	if hits.Load() != 3 {
		t.Fatalf("dispatch ran %d slots, want 3", hits.Load())
	}
	p.Close()
	p.Close() // idempotent

	// A closed pool still fans out, via transient goroutines.
	hits.Store(0)
	p.dispatch(4, func(int) { hits.Add(1) })
	if hits.Load() != 4 {
		t.Fatalf("closed-pool dispatch ran %d slots, want 4", hits.Load())
	}
}

func TestNilPool(t *testing.T) {
	checkGoroutines(t)
	var p *Pool
	p.Close() // nil-safe
	var hits atomic.Int64
	p.dispatch(4, func(int) { hits.Add(1) })
	if hits.Load() != 4 {
		t.Fatalf("nil-pool dispatch ran %d slots, want 4", hits.Load())
	}
}

func TestNewPoolDefaultSize(t *testing.T) {
	checkGoroutines(t)
	p, resident := newPoolCounted(0)
	defer p.Close()
	if resident != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0) left %d goroutines running, want GOMAXPROCS = %d", resident, runtime.GOMAXPROCS(0))
	}
}

func TestRunStaticCoversAll(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(4)
	defer p.Close()
	for _, workers := range []int{1, 2, 7} {
		covered := make([]atomic.Int32, 100)
		err := Run(Config{Workers: workers, Pool: p}, Plan{
			Name:  "test.static",
			Items: len(covered),
			Body: func(w *Worker, lo, hi int) error {
				for i := lo; i < hi; i++ {
					if err := w.Tick(i); err != nil {
						return err
					}
					covered[i].Add(1)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range covered {
			if c := covered[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestRunPerWorker(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(4)
	defer p.Close()
	// PerWorker must run exactly Workers slots with Body(w, slot, slot+1),
	// even when Items is left zero — the slots ARE the items.
	var slots [5]atomic.Int32
	err := Run(Config{Pool: p}, Plan{
		Name:      "test.perworker",
		Partition: PerWorker,
		Workers:   5,
		Body: func(w *Worker, lo, hi int) error {
			if lo != w.Index || hi != lo+1 {
				return fmt.Errorf("slot %d got range [%d,%d)", w.Index, lo, hi)
			}
			slots[lo].Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range slots {
		if c := slots[i].Load(); c != 1 {
			t.Fatalf("slot %d ran %d times, want 1", i, c)
		}
	}
}

func TestRunNoBody(t *testing.T) {
	if err := Run(Config{}, Plan{Name: "test.nobody"}); err == nil {
		t.Fatal("Run with nil Body succeeded")
	}
}

func TestRunZeroItems(t *testing.T) {
	called := false
	err := Run(Config{Workers: 4}, Plan{
		Name: "test.empty",
		Body: func(w *Worker, lo, hi int) error { called = true; return nil },
	})
	if err != nil || called {
		t.Fatalf("err=%v called=%v; want nil, false", err, called)
	}
}

func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("budget blown")
	cancel(cause)
	called := false
	err := Run(Config{Ctx: ctx, Workers: 2}, Plan{
		Name:  "test.precanceled",
		Items: 10,
		Body:  func(w *Worker, lo, hi int) error { called = true; return nil },
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want cause %v", err, cause)
	}
	if called {
		t.Fatal("body ran under a pre-canceled context")
	}
}

func TestRunCancelMidRun(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ticked atomic.Int64
	err := Run(Config{Ctx: ctx, Workers: 2, Pool: p}, Plan{
		Name:       "test.cancelmid",
		Items:      10_000,
		CheckEvery: 1,
		Body: func(w *Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
				if ticked.Add(1) == 5 {
					cancel()
				}
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ticked.Load(); n >= 10_000 {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
}

func TestRunPanicCaptured(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(3)
	defer p.Close()
	err := Run(Config{Workers: 3, Pool: p}, Plan{
		Name:  "test.panic",
		Items: 300,
		Body: func(w *Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if i == 150 {
					panic("kaboom")
				}
			}
			return nil
		},
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not *PanicError", err)
	}
	if pe.Plan != "test.panic" {
		t.Fatalf("PanicError.Plan = %q, want test.panic", pe.Plan)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("PanicError.Value = %v, want kaboom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError.Stack is empty")
	}
}

func TestRunErrorBySlotOrder(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(4)
	defer p.Close()
	// Every slot errors; Run must deterministically surface slot 0's error
	// regardless of which worker finished first.
	for trial := 0; trial < 20; trial++ {
		err := Run(Config{Workers: 4, Pool: p}, Plan{
			Name:      "test.errorder",
			Partition: PerWorker,
			Body: func(w *Worker, lo, hi int) error {
				return fmt.Errorf("slot %d failed", w.Index)
			},
		})
		if err == nil || err.Error() != "slot 0 failed" {
			t.Fatalf("trial %d: err = %v, want slot 0 failed", trial, err)
		}
	}
}

func TestRunScratchErrorAborts(t *testing.T) {
	boom := errors.New("no scratch")
	bodyRan := false
	err := Run(Config{Workers: 1}, Plan{
		Name:    "test.scratcherr",
		Items:   10,
		Scratch: func(w *Worker) error { return boom },
		Body:    func(w *Worker, lo, hi int) error { bodyRan = true; return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if bodyRan {
		t.Fatal("body ran after Scratch failed")
	}
}

func TestRunScratchAndFinishPerSlot(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(3)
	defer p.Close()
	var scratched atomic.Int64
	var finishOrder []int
	err := Run(Config{Workers: 3, Pool: p}, Plan{
		Name:      "test.scratchfinish",
		Partition: PerWorker,
		Scratch: func(w *Worker) error {
			scratched.Add(1)
			w.Scratch = w.Index * 10
			return nil
		},
		Body: func(w *Worker, lo, hi int) error {
			if w.Scratch.(int) != w.Index*10 {
				return fmt.Errorf("slot %d saw scratch %v", w.Index, w.Scratch)
			}
			return nil
		},
		Finish: func(w *Worker) { finishOrder = append(finishOrder, w.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if scratched.Load() != 3 {
		t.Fatalf("Scratch ran %d times, want 3", scratched.Load())
	}
	if len(finishOrder) != 3 || finishOrder[0] != 0 || finishOrder[1] != 1 || finishOrder[2] != 2 {
		t.Fatalf("Finish order = %v, want [0 1 2]", finishOrder)
	}
}

func TestRunFinishRunsOnError(t *testing.T) {
	checkGoroutines(t)
	p := NewPool(2)
	defer p.Close()
	var finished atomic.Int64
	err := Run(Config{Workers: 2, Pool: p}, Plan{
		Name:      "test.finisherr",
		Partition: PerWorker,
		Body: func(w *Worker, lo, hi int) error {
			if w.Index == 1 {
				return errors.New("slot 1 died")
			}
			return nil
		},
		Finish: func(w *Worker) { finished.Add(1) },
	})
	if err == nil {
		t.Fatal("want error")
	}
	if finished.Load() != 2 {
		t.Fatalf("Finish ran for %d slots, want 2 (teardown must not leak on error)", finished.Load())
	}
}

func TestRunFaultSites(t *testing.T) {
	// The generic worker site and the plan-scoped site both fire per item.
	genericHook, genericHits := faultinject.Counter()
	defer faultinject.Arm(faultinject.SiteKernelWorker, genericHook)()
	scopedHook, scopedHits := faultinject.Counter()
	defer faultinject.Arm(faultinject.PlanWorkerSite("test.sites"), scopedHook)()
	err := Run(Config{Workers: 1}, Plan{
		Name:  "test.sites",
		Items: 7,
		Body: func(w *Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if genericHits() != 7 {
		t.Fatalf("generic worker site fired %d times, want 7", genericHits())
	}
	if scopedHits() != 7 {
		t.Fatalf("plan-scoped worker site fired %d times, want 7", scopedHits())
	}
}

// TestRunDisarmedAllocs pins the disarmed cost of a one-worker Run: with
// no hook armed and no collector installed, Run builds no fault-site name
// and takes no lock. What remains is the worker slice, the error slice,
// the worker and the slot closure.
func TestRunDisarmedAllocs(t *testing.T) {
	if faultinject.Active() || obs.Global() != nil {
		t.Skip("a hook or a global collector is armed")
	}
	plan := Plan{
		Name:  "test.allocs",
		Items: 4,
		Body: func(w *Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
			}
			return nil
		},
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := Run(Config{Workers: 1}, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("disarmed one-worker Run made %v allocations, want at most 4", allocs)
	}
}

func TestRunPlanScopedError(t *testing.T) {
	boom := errors.New("scoped hit")
	defer faultinject.Arm(faultinject.PlanWorkerSite("test.scopederr"),
		faultinject.OnHit(3, func(any) error { return boom }))()
	err := Run(Config{Workers: 1}, Plan{
		Name:  "test.scopederr",
		Items: 10,
		Body: func(w *Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestFireOutput(t *testing.T) {
	genericHook, genericHits := faultinject.Counter()
	defer faultinject.Arm(faultinject.SiteKernelOutput, genericHook)()
	scopedHook, scopedHits := faultinject.Counter()
	defer faultinject.Arm(faultinject.PlanOutputSite("test.out"), scopedHook)()
	if err := FireOutput("test.out", nil); err != nil {
		t.Fatal(err)
	}
	if genericHits() != 1 || scopedHits() != 1 {
		t.Fatalf("output sites fired generic=%d scoped=%d, want 1/1", genericHits(), scopedHits())
	}
}

func TestCauseAndIsCanceled(t *testing.T) {
	if IsCanceled(nil) {
		t.Fatal("nil context reported canceled")
	}
	if Cause(nil) != nil {
		t.Fatal("nil context has a cause")
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	if IsCanceled(ctx) {
		t.Fatal("live context reported canceled")
	}
	want := errors.New("the reason")
	cancel(want)
	if !IsCanceled(ctx) {
		t.Fatal("canceled context not reported")
	}
	if got := Cause(ctx); !errors.Is(got, want) {
		t.Fatalf("Cause = %v, want %v", got, want)
	}
	plain, cancelPlain := context.WithCancel(context.Background())
	cancelPlain()
	if got := Cause(plain); !errors.Is(got, context.Canceled) {
		t.Fatalf("Cause = %v, want context.Canceled", got)
	}
}

func TestFirstNonFinite(t *testing.T) {
	if i := FirstNonFinite([]float64{1, 2, 3}); i != -1 {
		t.Fatalf("finite slice: got %d, want -1", i)
	}
	if i := FirstNonFinite([]float64{1, math.NaN(), math.Inf(1)}); i != 1 {
		t.Fatalf("NaN at 1: got %d", i)
	}
	if i := FirstNonFinite([]float64{math.Inf(-1)}); i != 0 {
		t.Fatalf("-Inf at 0: got %d", i)
	}
	if i := FirstNonFinite(nil); i != -1 {
		t.Fatalf("nil slice: got %d, want -1", i)
	}
	// A NaN with a payload and ±Inf at every offset of a 9-entry slice:
	// both the four-entry steps and the tail find it.
	payloadNaN := math.Float64frombits(0x7ff8_dead_beef_0001)
	for _, bad := range []float64{payloadNaN, math.Inf(1), math.Inf(-1)} {
		for at := 0; at < 9; at++ {
			data := make([]float64, 9)
			data[at] = bad
			if i := FirstNonFinite(data); i != at {
				t.Fatalf("%v at %d of 9: got %d", bad, at, i)
			}
		}
	}
	// The largest finite value, a subnormal and −0 are finite.
	finite := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1, 2, 3, 4, 5}
	if i := FirstNonFinite(finite); i != -1 {
		t.Fatalf("finite extremes: got %d, want -1", i)
	}
	// Of two non-finite entries, in one step or in two, the first is returned.
	for _, at := range [][2]int{{1, 2}, {2, 6}, {5, 8}} {
		data := make([]float64, 9)
		data[at[0]], data[at[1]] = math.Inf(-1), math.NaN()
		if i := FirstNonFinite(data); i != at[0] {
			t.Fatalf("non-finite at %d and %d: got %d", at[0], at[1], i)
		}
	}
}
