package kernels

import (
	"fmt"
	"testing"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// dyadicCase builds a fixture whose arithmetic is exact in float64: tensor
// values are small integers and factor entries are dyadic rationals k/8, so
// every kernel sum is an exact multiple of a power of two well inside the
// 53-bit mantissa. With exact arithmetic, any result difference across
// worker counts is a real assignment bug, not rounding
// — which is what lets the determinism matrix demand bit identity.
func dyadicCase(t *testing.T, order, dim, nnz, r int, seed int64) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, u := randomCase(t, order, dim, nnz, r, seed)
	for i := range x.Values {
		x.Values[i] = float64(1 + i%5)
	}
	for i := range u.Data {
		u.Data[i] = float64((i*7)%17-8) / 8
	}
	return x, u
}

// TestKernelDeterminismMatrix checks bit-identical kernel output across the
// full execution matrix the engine is supposed to make irrelevant:
// workers ∈ {1, 2, 7} × pool ∈ {fresh transient, persistent} × fusion ×
// caches ∈ {per call, shared}, on three fixture tensors. The shared arm
// hands every cell of a (fixture, kernel) pair the same plan cache,
// workspace pool and schedule cache, as a Tucker run does across sweeps, so
// schedules, recycled workspaces and recycled spill buffers left behind by
// one worker count or fusion mode are reused by the next. The reference is
// the serial run with no pool and no caches.
func TestKernelDeterminismMatrix(t *testing.T) {
	kernels := []struct {
		name string
		run  func(*spsym.Tensor, *linalg.Matrix, Options) (*linalg.Matrix, error)
	}{
		{"symprop", S3TTMcSymProp},
		{"ucoo", S3TTMcUCOO},
		{"nary", func(x *spsym.Tensor, u *linalg.Matrix, o Options) (*linalg.Matrix, error) {
			res, err := NaryTTMcTC(x, u, o)
			if err != nil {
				return nil, err
			}
			return res.A, nil
		}},
		{"mttkrp", S3MTTKRP},
	}
	fixtures := []struct {
		name string
		x    *spsym.Tensor
		u    *linalg.Matrix
	}{}
	{
		x, u := dyadicCase(t, 3, 48, 900, 3, 71)
		fixtures = append(fixtures, struct {
			name string
			x    *spsym.Tensor
			u    *linalg.Matrix
		}{"order3", x, u})
	}
	{
		x, u := dyadicCase(t, 4, 24, 400, 3, 72)
		fixtures = append(fixtures, struct {
			name string
			x    *spsym.Tensor
			u    *linalg.Matrix
		}{"order4", x, u})
	}
	{
		// Rank 4 puts the order-3 fixture on the fused-kernel grid, so the
		// fusion dimension below exercises the generated evaluators against
		// the generic lattice inside the same bit-identity matrix.
		x, u := dyadicCase(t, 3, 48, 900, 4, 74)
		fixtures = append(fixtures, struct {
			name string
			x    *spsym.Tensor
			u    *linalg.Matrix
		}{"order3r4", x, u})
	}

	for _, fx := range fixtures {
		for _, k := range kernels {
			ref, err := k.run(fx.x, fx.u, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s reference: %v", fx.name, k.name, err)
			}
			shared := Options{PlanCache: &css.Cache{}, Pool: &WorkspacePool{}, Schedules: &ScheduleCache{}}
			for _, workers := range []int{1, 2, 7} {
				for _, pooled := range []bool{false, true} {
					for _, fusion := range []string{"auto", "off"} {
						for _, caches := range []string{"per-call", "shared"} {
							name := fmt.Sprintf("%s/%s/workers=%d/pooled=%v/fusion=%s/caches=%s",
								fx.name, k.name, workers, pooled, fusion, caches)
							t.Run(name, func(t *testing.T) {
								var pool *exec.Pool
								if pooled {
									pool = exec.NewPool(workers)
									defer pool.Close()
								}
								opts := Options{Workers: workers, Exec: pool, noFusion: fusion == "off"}
								if caches == "shared" {
									opts.PlanCache, opts.Pool, opts.Schedules = shared.PlanCache, shared.Pool, shared.Schedules
								}
								got, err := k.run(fx.x, fx.u, opts)
								if err != nil {
									t.Fatal(err)
								}
								if got.Rows != ref.Rows || got.Cols != ref.Cols {
									t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, ref.Rows, ref.Cols)
								}
								for i := range ref.Data {
									if got.Data[i] != ref.Data[i] {
										t.Fatalf("bit mismatch at %d: got %x, want %x",
											i, got.Data[i], ref.Data[i])
									}
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestKernelDeterminismPooledRepeat reruns the same kernel twice on one
// persistent pool (the sweep-to-sweep reuse pattern of the Tucker drivers)
// and demands bit identity between the runs: warm per-slot scratch must not
// change results.
func TestKernelDeterminismPooledRepeat(t *testing.T) {
	x, u := dyadicCase(t, 3, 48, 900, 3, 73)
	pool := exec.NewPool(4)
	defer pool.Close()
	opts := Options{Workers: 4, Exec: pool}
	first, err := S3TTMcSymProp(x, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := S3TTMcSymProp(x, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Data {
		if first.Data[i] != second.Data[i] {
			t.Fatalf("pooled rerun differs at %d: %x vs %x", i, first.Data[i], second.Data[i])
		}
	}
}
