package tucker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/obs"
)

// stagePlans is the engine plans each driver's sweep runs after its
// S³TTMc: every driver scans the kernel output as health.scan, every driver
// but HOQRI-nary forms its core as ttmctc.cp (Algorithm 2's core stage),
// HOQRI forms A as ttmctc.a, and HOOI's SVD step (Algorithm 3) runs
// svd.expand, in HOOI only, and svd.gram, in HOOI and HOOI-CSS.
func stagePlans(driver string) []string {
	switch driver {
	case "hoqri-nary":
		return []string{scanPlan}
	case "hoqri":
		return []string{scanPlan, "ttmctc.cp", "ttmctc.a"}
	case "hooi":
		return []string{scanPlan, "ttmctc.cp", "svd.expand", "svd.gram"}
	case "hooi-css":
		return []string{scanPlan, "ttmctc.cp", "svd.gram"}
	default:
		return []string{scanPlan, "ttmctc.cp"}
	}
}

// finalCorePlan reports whether plan also runs in the final-core pass of
// the HOQRI family, which rebuilds the last factor's core: its kernel
// output's scan and its core product.
func finalCorePlan(driver, plan string) bool {
	return strings.HasPrefix(driver, "hoqri") && (plan == scanPlan || plan == "ttmctc.cp")
}

func planInvocations(pms []obs.PlanMetrics, name string) int64 {
	for _, pm := range pms {
		if pm.Name == name {
			return pm.Invocations
		}
	}
	return 0
}

// TestDriversRunTheStagePlans: the drivers form C and A, and run HOOI's
// SVD step, through the kernels' stage functions, so the stage plans show
// in Result.PlanMetrics, once per product, and in every sweep's
// TraceEvent.Plans. Rank 3 takes the column-side Gram (I = 12 > 9 columns),
// rank 4 the row side (12 <= 16).
func TestDriversRunTheStagePlans(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	for _, rank := range []int{3, 4} {
		for _, d := range resumableDrivers() {
			t.Run(fmt.Sprintf("%s/rank%d", d.name, rank), func(t *testing.T) {
				res, err := d.run(x, Options{Rank: rank, MaxIters: 4, Seed: 4, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, plan := range stagePlans(d.name) {
					// The HOQRI family forms one more core, for the final
					// factor.
					want := int64(res.Iters)
					if finalCorePlan(d.name, plan) {
						want++
					}
					if got := planInvocations(res.PlanMetrics, plan); got != want {
						t.Errorf("%s: %d invocations, want %d", plan, got, want)
					}
					for _, ev := range res.Trace {
						if got := ev.Plans[plan].Invocations; got != 1 {
							t.Errorf("sweep %d: %s has %d invocations, want 1", ev.Sweep, plan, got)
						}
					}
				}
			})
		}
	}
}

// TestSVDGramWorkerSpans: svd.gram runs under the run's Workers on both
// sides of the Gram, with one worker span per invocation at Workers 1 and
// two at Workers 2 (the row side's 12 rows make two 8-row tiles).
func TestSVDGramWorkerSpans(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 13)
	for _, name := range []string{"hooi", "hooi-css"} {
		run := driverByName(t, name)
		for _, rank := range []int{3, 4} {
			for _, workers := range []int{1, 2} {
				res, err := run(x, Options{Rank: rank, MaxIters: 3, Seed: 4, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var gram obs.PlanMetrics
				for _, pm := range res.PlanMetrics {
					if pm.Name == "svd.gram" {
						gram = pm
					}
				}
				if gram.Invocations != int64(res.Iters) || gram.WorkerSpans != int64(workers*res.Iters) {
					t.Errorf("%s rank %d workers %d: svd.gram has %d invocations, %d worker spans; want %d and %d",
						name, rank, workers, gram.Invocations, gram.WorkerSpans, res.Iters, workers*res.Iters)
				}
			}
		}
	}
}

// TestStageFaultsReachTheCaller: an error armed at a stage plan's worker
// site aborts the driver and comes back matched by errors.Is.
func TestStageFaultsReachTheCaller(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 11)
	for _, d := range resumableDrivers() {
		for _, plan := range stagePlans(d.name) {
			t.Run(d.name+"/"+plan, func(t *testing.T) {
				boom := errors.New("injected " + plan + " fault")
				disarm := faultinject.Arm(faultinject.PlanWorkerSite(plan),
					faultinject.OnHit(2, func(any) error { return boom }))
				defer disarm()
				_, err := d.run(x, Options{Rank: 3, MaxIters: 4, Seed: 4, Workers: 2})
				if !errors.Is(err, boom) {
					t.Fatalf("got %v, want the injected fault", err)
				}
			})
		}
	}
}

// TestStagePanicsReachTheCaller: a panic at a stage plan's worker site
// comes back from the driver as kernels.ErrWorkerPanic naming the plan.
func TestStagePanicsReachTheCaller(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 11)
	for _, d := range resumableDrivers() {
		for _, plan := range stagePlans(d.name) {
			t.Run(d.name+"/"+plan, func(t *testing.T) {
				disarm := faultinject.Arm(faultinject.PlanWorkerSite(plan),
					faultinject.OnHit(2, func(any) error { panic("injected " + plan + " crash") }))
				defer disarm()
				_, err := d.run(x, Options{Rank: 3, MaxIters: 4, Seed: 4, Workers: 2})
				var wp *kernels.WorkerPanicError
				if !errors.Is(err, kernels.ErrWorkerPanic) || !errors.As(err, &wp) || wp.Plan != plan {
					t.Fatalf("got %v, want kernels.ErrWorkerPanic naming %s", err, plan)
				}
			})
		}
	}
}

// TestStageCancelResumes cancels a checkpointed run inside a stage plan
// in sweep k and resumes from the snapshot the cancel wrote: the resumed
// run must reproduce the uninterrupted run's objective, factor and core
// bit for bit. HOOI's core stage runs after its SVD has replaced the
// factor, and HOQRI's A stage after the sweep's objective is recorded, so
// both must snapshot the state the sweep started from. k = n is HOQRI's
// final-core pass.
func TestStageCancelResumes(t *testing.T) {
	const n = 4
	x := testTensor(t, 3, 12, 60, 12)
	base := Options{Rank: 3, MaxIters: n, Seed: 6, Workers: 2}
	for _, name := range []string{"hooi", "hoqri"} {
		run := driverByName(t, name)
		straight, err := run(x, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range stagePlans(name) {
			last := n - 1
			if finalCorePlan(name, plan) {
				last = n
			}
			for k := 0; k <= last; k++ {
				t.Run(fmt.Sprintf("%s/%s/k%d", name, plan, k), func(t *testing.T) {
					var sweep atomic.Int64
					defer faultinject.Arm(faultinject.SiteIteration, func(p any) error {
						sweep.Store(int64(p.(int)))
						return nil
					})()
					disarm := faultinject.Arm(faultinject.PlanWorkerSite(plan), func(any) error {
						if sweep.Load() == int64(k) {
							return context.Canceled
						}
						return nil
					})
					opts := base
					opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
					opts.CheckpointEvery = 10 // only the cancel-exit snapshot
					_, err := run(x, opts)
					disarm()
					var ce *CanceledError
					if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
						t.Fatalf("got %v, want *CanceledError wrapping context.Canceled", err)
					}
					if ce.Iters != k || ce.CheckpointPath == "" {
						t.Fatalf("canceled after %d sweeps with snapshot %q, want %d and a snapshot",
							ce.Iters, ce.CheckpointPath, k)
					}
					state, err := checkpoint.Load(ce.CheckpointPath)
					if err != nil {
						t.Fatal(err)
					}
					opts = base
					opts.Resume = state
					resumed, err := run(x, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, "objective", resumed.Objective, straight.Objective)
					sameBits(t, "factor", resumed.U.Data, straight.U.Data)
					sameBits(t, "core", resumed.CoreP.Data, straight.CoreP.Data)
				})
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s differs at %d: %v vs %v", what, i, got[i], want[i])
		}
	}
}
