package kernels

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// checkGoroutines fails the test if the goroutine count has not returned to
// its pre-test baseline shortly after the test body finishes. The fan-out
// helpers join workers with a WaitGroup, so a correctly canceled or
// panicked kernel leaks nothing; a missing join shows up here as a count
// stuck above baseline. Polling (rather than a single sample) tolerates
// runtime-internal goroutines winding down.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d at start, %d two seconds after the kernel returned", base, n)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// resilienceKernels enumerates every kernel entry point with worker
// fan-out, normalized to a common signature.
func resilienceKernels() []struct {
	name string
	run  func(*spsym.Tensor, *linalg.Matrix, Options) error
} {
	return []struct {
		name string
		run  func(*spsym.Tensor, *linalg.Matrix, Options) error
	}{
		{"symprop", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := S3TTMcSymProp(x, u, o)
			return err
		}},
		{"css", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := S3TTMcCSS(x, u, o)
			return err
		}},
		{"ucoo", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := S3TTMcUCOO(x, u, o)
			return err
		}},
		{"nary", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := NaryTTMcTC(x, u, o)
			return err
		}},
		{"splatt", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := TTMcSPLATT(x, u, o)
			return err
		}},
		{"ttmctc", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := S3TTMcTC(x, u, o)
			return err
		}},
		{"mttkrp", func(x *spsym.Tensor, u *linalg.Matrix, o Options) error {
			_, err := S3MTTKRP(x, u, o)
			return err
		}},
	}
}

// resilienceArms are the execution setups a kernel must fail cleanly
// under: transient goroutines, a persistent engine pool (how the Tucker
// drivers run), and a memory guard whose every reservation must be
// returned on the failure path.
var resilienceArms = []string{"transient", "pooled", "guarded"}

// resilienceOptions sets o up for arm. The pool is closed when the test
// ends, before checkGoroutines samples, so a pool worker that never came
// back would still show up as a leak.
func resilienceOptions(t *testing.T, arm string, o Options) Options {
	t.Helper()
	switch arm {
	case "pooled":
		pool := exec.NewPool(o.Workers)
		t.Cleanup(pool.Close)
		o.Exec = pool
	case "guarded":
		o.Guard = memguard.New(1 << 40)
	}
	return o
}

// checkGuardReleased fails the test if o carries a guard that still holds
// bytes after the kernel returned.
func checkGuardReleased(t *testing.T, o Options) {
	t.Helper()
	if o.Guard != nil && o.Guard.Used() != 0 {
		t.Errorf("guard still holds %d bytes after the kernel failed", o.Guard.Used())
	}
}

// TestKernelCancelMidRun cancels the context from inside a worker loop (via
// the per-non-zero injection site) and checks that every kernel, under
// every resilience arm, surfaces context.Canceled, joins all workers and
// releases its reservations.
func TestKernelCancelMidRun(t *testing.T) {
	x, u := randomCase(t, 3, 40, 3000, 3, 61)
	for _, k := range resilienceKernels() {
		for _, arm := range resilienceArms {
			t.Run(k.name+"/"+arm, func(t *testing.T) {
				checkGoroutines(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var fired atomic.Int64
				disarm := faultinject.Arm(faultinject.SiteKernelWorker, func(any) error {
					if fired.Add(1) == 5 {
						cancel()
					}
					return nil
				})
				defer disarm()
				opts := resilienceOptions(t, arm, Options{Ctx: ctx, Workers: 2})
				err := k.run(x, u, opts)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled", err)
				}
				if fired.Load() >= int64(x.NNZ()) {
					t.Errorf("all %d non-zeros processed despite mid-run cancel", x.NNZ())
				}
				checkGuardReleased(t, opts)
			})
		}
	}
}

// TestKernelCancelCause checks that a cause attached via
// context.WithCancelCause travels through the kernel error path.
func TestKernelCancelCause(t *testing.T) {
	checkGoroutines(t)
	x, u := randomCase(t, 3, 30, 1500, 3, 62)
	cause := errors.New("budget deadline hit")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	disarm := faultinject.Arm(faultinject.SiteKernelWorker, faultinject.OnHit(5, func(any) error {
		cancel(cause)
		return nil
	}))
	defer disarm()
	_, err := S3TTMcSymProp(x, u, Options{Ctx: ctx, Workers: 2})
	if !errors.Is(err, cause) {
		t.Fatalf("got %v, want the cancel cause", err)
	}
}

// TestKernelPreCanceledContext checks the cheap early exit: an already
// canceled context stops every kernel before any worker is spawned.
func TestKernelPreCanceledContext(t *testing.T) {
	x, u := randomCase(t, 3, 20, 200, 3, 63)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hook, hits := faultinject.Counter()
	disarm := faultinject.Arm(faultinject.SiteKernelWorker, hook)
	defer disarm()
	for _, k := range resilienceKernels() {
		t.Run(k.name, func(t *testing.T) {
			checkGoroutines(t)
			err := k.run(x, u, Options{Ctx: ctx, Workers: 2})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
		})
	}
	if n := hits(); n != 0 {
		t.Errorf("pre-canceled context still processed %d non-zeros", n)
	}
}

// TestKernelWorkerPanicRecovered injects a panic into the third processed
// non-zero and checks that every kernel, under every resilience arm,
// converts it into a typed *WorkerPanicError instead of killing the
// process, again without leaking workers or reservations.
func TestKernelWorkerPanicRecovered(t *testing.T) {
	x, u := randomCase(t, 3, 40, 3000, 3, 64)
	for _, k := range resilienceKernels() {
		for _, arm := range resilienceArms {
			t.Run(k.name+"/"+arm, func(t *testing.T) {
				checkGoroutines(t)
				disarm := faultinject.Arm(faultinject.SiteKernelWorker,
					faultinject.OnHit(3, func(any) error { panic("injected worker crash") }))
				defer disarm()
				opts := resilienceOptions(t, arm, Options{Workers: 2})
				err := k.run(x, u, opts)
				if !errors.Is(err, ErrWorkerPanic) {
					t.Fatalf("got %v, want ErrWorkerPanic", err)
				}
				var wp *WorkerPanicError
				if !errors.As(err, &wp) {
					t.Fatalf("error %v does not unwrap to *WorkerPanicError", err)
				}
				if wp.Value != "injected worker crash" {
					t.Errorf("panic value %v, want the injected string", wp.Value)
				}
				if len(wp.Stack) == 0 {
					t.Error("panic stack not captured")
				}
				checkGuardReleased(t, opts)
			})
		}
	}
}

// TestKernelWorkerErrorAborts checks the plain (non-panic) error path: a
// hook error at the worker site aborts the kernel with that exact error.
func TestKernelWorkerErrorAborts(t *testing.T) {
	x, u := randomCase(t, 3, 30, 1500, 3, 65)
	injected := errors.New("injected worker error")
	for _, k := range resilienceKernels() {
		t.Run(k.name, func(t *testing.T) {
			checkGoroutines(t)
			disarm := faultinject.Arm(faultinject.SiteKernelWorker,
				faultinject.OnHit(7, func(any) error { return injected }))
			defer disarm()
			if err := k.run(x, u, Options{Workers: 2}); !errors.Is(err, injected) {
				t.Fatalf("got %v, want the injected error", err)
			}
		})
	}
}

// TestKernelOutputSiteAborts checks that an error from the output
// inspection site replaces the kernel's successful result.
func TestKernelOutputSiteAborts(t *testing.T) {
	x, u := randomCase(t, 3, 20, 300, 3, 66)
	injected := errors.New("output rejected")
	disarm := faultinject.Arm(faultinject.SiteKernelOutput, func(any) error { return injected })
	defer disarm()
	for _, k := range resilienceKernels() {
		t.Run(k.name, func(t *testing.T) {
			if err := k.run(x, u, Options{Workers: 2}); !errors.Is(err, injected) {
				t.Fatalf("got %v, want the injected error", err)
			}
		})
	}
}

// TestKernelResultUnchangedByCancelPlumbing guards the zero-cost claim: the
// same call with and without a live context produces bit-identical output.
func TestKernelResultUnchangedByCancelPlumbing(t *testing.T) {
	x, u := randomCase(t, 3, 30, 1500, 3, 67)
	plain, err := S3TTMcSymProp(x, u, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := S3TTMcSymProp(x, u, Options{Ctx: ctx, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if plain.Data[i] != withCtx.Data[i] {
			t.Fatalf("output differs at %d: %g vs %g", i, plain.Data[i], withCtx.Data[i])
		}
	}
}

// TestTTMcTCProductStageFaults targets the two dense product stages of
// S3TTMcTC specifically, via their plan-scoped fault sites: the sparse
// S³TTMc pass completes cleanly, then the injected fault must surface from
// the matmul plan itself — an error from ttmctc.cp, a typed panic from
// ttmctc.a naming its plan.
func TestTTMcTCProductStageFaults(t *testing.T) {
	x, u := randomCase(t, 3, 40, 3000, 3, 68)

	t.Run("cp-error", func(t *testing.T) {
		checkGoroutines(t)
		injected := errors.New("injected cp-stage error")
		disarm := faultinject.Arm(faultinject.PlanWorkerSite("ttmctc.cp"),
			faultinject.OnHit(2, func(any) error { return injected }))
		defer disarm()
		if _, err := S3TTMcTC(x, u, Options{Workers: 2}); !errors.Is(err, injected) {
			t.Fatalf("got %v, want the injected error", err)
		}
	})

	t.Run("a-panic", func(t *testing.T) {
		checkGoroutines(t)
		disarm := faultinject.Arm(faultinject.PlanWorkerSite("ttmctc.a"),
			faultinject.OnHit(1, func(any) error { panic("injected a-stage crash") }))
		defer disarm()
		_, err := S3TTMcTC(x, u, Options{Workers: 2})
		var wp *WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("got %v, want *WorkerPanicError", err)
		}
		if wp.Plan != "ttmctc.a" {
			t.Errorf("panic attributed to plan %q, want ttmctc.a", wp.Plan)
		}
	})

	t.Run("cp-cancel", func(t *testing.T) {
		checkGoroutines(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		disarm := faultinject.Arm(faultinject.PlanWorkerSite("ttmctc.cp"),
			faultinject.OnHit(1, func(any) error { cancel(); return nil }))
		defer disarm()
		// With CheckEvery=1 the very next tick of either matmul stage
		// observes the canceled context.
		if _, err := S3TTMcTC(x, u, Options{Ctx: ctx, Workers: 2}); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
}

// TestGuardBalancesAfterEveryKernel holds every scatter kernel and
// S3TTMcTC to balanced guard charges: under a 1 GiB budget, Guard.Used()
// is 0 once the call returns — at one worker and at three, which charge
// the exact spill buffers, after a cancel inside the owner pass, while
// the spill buffers are held, and after a refused spill reservation,
// which shrinks the call to one worker.
func TestGuardBalancesAfterEveryKernel(t *testing.T) {
	x, u := normalCase(t, 4, 12, 200, 3, 86, false)
	tc := scatterKernels[0]
	tc.name, tc.run = "ttmctc", func(x *spsym.Tensor, u *linalg.Matrix, o Options) (*linalg.Matrix, error) {
		res, err := S3TTMcTC(x, u, o)
		if err != nil {
			return nil, err
		}
		return res.A, nil
	}
	for _, k := range append(slices.Clone(scatterKernels), tc) {
		for _, c := range []struct {
			name    string
			workers int
			arm     func() func()
			wantErr error
		}{
			{"workers=1", 1, nil, nil},
			{"workers=3", 3, nil, nil},
			{"cancel", 3, func() func() {
				return faultinject.Arm(faultinject.SiteKernelWorker,
					faultinject.OnHit(20, func(any) error { return context.Canceled }))
			}, context.Canceled},
			{"spills-refused", 3, func() func() {
				return faultinject.Arm(faultinject.SiteGuardReserve, func(what any) error {
					if what == "owner-computes spill buffers" {
						return errors.New("injected rejection")
					}
					return nil
				})
			}, nil},
		} {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				if c.arm != nil {
					defer c.arm()()
				}
				g := memguard.New(1 << 30)
				_, err := k.run(x, u, Options{Workers: c.workers, Guard: g})
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("got %v, want %v", err, c.wantErr)
				}
				if used := g.Used(); used != 0 {
					t.Errorf("guard holds %d bytes after the call returned", used)
				}
			})
		}
	}
}
