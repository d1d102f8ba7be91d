package cpd

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// rank1SymmetricTensor builds a sparse tensor from lambda * v^{⊗order} by
// keeping entries above a threshold (the tensor is dense in principle;
// small dims keep it complete).
func rank1SymmetricTensor(t *testing.T, v []float64, order int, lambda float64) *spsym.Tensor {
	t.Helper()
	dim := len(v)
	x := spsym.New(order, dim)
	idx := make([]int, order)
	var fill func(depth, start int)
	fill = func(depth, start int) {
		if depth == order {
			p := lambda
			for _, i := range idx {
				p *= v[i]
			}
			if p != 0 {
				x.Append(idx, p)
			}
			return
		}
		for i := start; i < dim; i++ {
			idx[depth] = i
			fill(depth+1, i)
		}
	}
	fill(0, 0)
	x.Canonicalize()
	return x
}

// A symmetric rank-1 tensor must be recovered to near machine precision.
func TestCPRecoversRank1(t *testing.T) {
	v := []float64{0.5, -1.0, 2.0, 0.25}
	x := rank1SymmetricTensor(t, v, 3, 2.0)
	res, err := Decompose(x, Options{Rank: 1, MaxIters: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.FinalFit(); fit < 0.9999 {
		t.Fatalf("rank-1 fit = %v, want ~1", fit)
	}
	// Reconstruction check at a few entries.
	for _, idx := range [][]int{{0, 1, 2}, {3, 3, 3}, {1, 1, 2}} {
		want := 2.0
		for _, i := range idx {
			want *= v[i]
		}
		if got := res.EvalApprox(idx); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("X̂(%v) = %v, want %v", idx, got, want)
		}
	}
}

func TestCPRankTwoImprovesOverRankOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A rank-2 symmetric tensor.
	v1 := make([]float64, 6)
	v2 := make([]float64, 6)
	for i := range v1 {
		v1[i] = rng.NormFloat64()
		v2[i] = rng.NormFloat64()
	}
	x1 := rank1SymmetricTensor(t, v1, 3, 1.0)
	x2 := rank1SymmetricTensor(t, v2, 3, 0.5)
	// Sum the two tensors.
	for k := 0; k < x2.NNZ(); k++ {
		tuple := x2.IndexAt(k)
		idx := []int{int(tuple[0]), int(tuple[1]), int(tuple[2])}
		x1.Append(idx, x2.Values[k])
	}
	x1.Canonicalize()

	r1, err := Decompose(x1, Options{Rank: 1, MaxIters: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decompose(x1, Options{Rank: 2, MaxIters: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.FinalFit() < r1.FinalFit()-1e-9 {
		t.Errorf("rank-2 fit %v worse than rank-1 fit %v", r2.FinalFit(), r1.FinalFit())
	}
	if r2.FinalFit() < 0.99 {
		t.Errorf("rank-2 fit = %v, want ~1 on a rank-2 tensor", r2.FinalFit())
	}
}

func TestCPValidation(t *testing.T) {
	x, _ := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 5, NNZ: 8, Seed: 1})
	if _, err := Decompose(x, Options{Rank: 0}); err == nil {
		t.Error("rank 0 must fail")
	}
	x1 := spsym.New(1, 5)
	x1.Append([]int{2}, 1)
	if _, err := Decompose(x1, Options{Rank: 2}); err == nil {
		t.Error("order-1 tensor must fail")
	}
}

func TestCPFitBounded(t *testing.T) {
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 12, NNZ: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompose(x, Options{Rank: 3, MaxIters: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Fit {
		if f < -1e-9 || f > 1+1e-9 {
			t.Errorf("fit[%d] = %v out of [0,1]", i, f)
		}
	}
	// Unit-norm columns.
	for c := 0; c < res.U.Cols; c++ {
		var n float64
		for i := 0; i < res.U.Rows; i++ {
			v := res.U.At(i, c)
			n += v * v
		}
		if math.Abs(n-1) > 1e-9 {
			t.Errorf("column %d norm² = %v, want 1", c, n)
		}
	}
}

func TestCPToleranceStops(t *testing.T) {
	v := []float64{1, 2, 3}
	x := rank1SymmetricTensor(t, v, 3, 1)
	res, err := Decompose(x, Options{Rank: 1, MaxIters: 500, Tol: 1e-10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters >= 500 {
		t.Errorf("expected early convergence, got %d iters (converged=%v)", res.Iters, res.Converged)
	}
}

func TestHadamardPower(t *testing.T) {
	a := linalg.NewMatrixFrom(2, 2, []float64{2, -1, 3, 0.5})
	p := hadamardPower(a, 3)
	want := []float64{8, -1, 27, 0.125}
	for i := range want {
		if p.Data[i] != want[i] {
			t.Fatalf("hadamardPower = %v, want %v", p.Data, want)
		}
	}
}

// cpHash hashes the bits of U, λ and the fit trace.
func cpHash(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, xs := range [][]float64{res.U.Data, res.Lambda, res.Fit} {
		for _, v := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestCPDeterminism pins CP's bits per worker count: 20 runs give one
// hash, and that hash is golden. The workers=1 value was recorded from the
// lock-striped kernel S3MTTKRP replaced, whose one-worker run added in the
// same order; under it, workers 2 and 4 gave 20 hashes in 20 runs.
func TestCPDeterminism(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	x, err := spsym.Random(spsym.RandomOptions{Order: 4, Dim: 60, NNZ: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workers int
		want    uint64
	}{{1, 0xcd04519275992f55}, {2, 0x3d6bc8e14344aced}, {4, 0xd7bd1cc2c9bd752d}} {
		for run := 0; run < 20; run++ {
			res, err := Decompose(x, Options{Rank: 6, MaxIters: 5, Seed: 3, Workers: c.workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := cpHash(res); got != c.want {
				t.Fatalf("workers=%d run %d: hash %#016x, want %#016x", c.workers, run, got, c.want)
			}
		}
	}
}

// checkGoroutines fails the test if the goroutine count has not returned
// to its pre-test baseline shortly after the test body finishes: a kernel
// that failed mid-run must still have joined every worker.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d at start, %d two seconds after Decompose returned", base, runtime.NumGoroutine())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// cpPlans is the engine plans of a CP sweep: S³MTTKRP and the two Grams.
var cpPlans = []string{"mttkrp.owner", "cpd.gram"}

// An error armed at a CP plan's worker site comes back from Decompose,
// wrapped.
func TestCPFaultInjectedError(t *testing.T) {
	checkGoroutines(t)
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 30, NNZ: 1500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range cpPlans {
		t.Run(plan, func(t *testing.T) {
			injected := errors.New("injected " + plan + " error")
			disarm := faultinject.Arm(faultinject.PlanWorkerSite(plan),
				faultinject.OnHit(7, func(any) error { return injected }))
			defer disarm()
			if _, err := Decompose(x, Options{Rank: 3, MaxIters: 3, Seed: 1, Workers: 2}); !errors.Is(err, injected) {
				t.Fatalf("got %v, want the injected error", err)
			}
		})
	}
}

// A panic in a CP plan's worker comes back as kernels.ErrWorkerPanic
// naming the plan, not as a process crash.
func TestCPWorkerPanicRecovered(t *testing.T) {
	checkGoroutines(t)
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 30, NNZ: 1500, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range cpPlans {
		t.Run(plan, func(t *testing.T) {
			disarm := faultinject.Arm(faultinject.PlanWorkerSite(plan),
				faultinject.OnHit(3, func(any) error { panic("injected " + plan + " crash") }))
			defer disarm()
			_, err := Decompose(x, Options{Rank: 3, MaxIters: 3, Seed: 1, Workers: 2})
			if !errors.Is(err, kernels.ErrWorkerPanic) {
				t.Fatalf("got %v, want kernels.ErrWorkerPanic", err)
			}
			var wp *kernels.WorkerPanicError
			if !errors.As(err, &wp) || wp.Plan != plan {
				t.Fatalf("error %v does not unwrap to a panic of plan %s", err, plan)
			}
		})
	}
}

// TestCPOnePoolPerRun: Decompose creates one exec.Pool per run, which every
// sweep's plans share, and closes it on return.
func TestCPOnePoolPerRun(t *testing.T) {
	checkGoroutines(t)
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 30, NNZ: 1500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2} {
		before := exec.PoolsCreated()
		if _, err := Decompose(x, Options{Rank: 3, MaxIters: 4, Seed: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if got := exec.PoolsCreated() - before; got != 1 {
			t.Errorf("workers=%d: %d pools created, want 1", workers, got)
		}
	}
}
