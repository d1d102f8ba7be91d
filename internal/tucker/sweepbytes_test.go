package tucker

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// totalAlloc returns the bytes f allocates, from runtime.MemStats.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepBytesFlat: a Tucker run writes every sweep's S³TTMc into its one
// output buffer, so a sweep allocates well under one kernel output. The
// per-sweep bytes are a MaxIters 2k run's minus a MaxIters k run's, over
// k; they must stay under a quarter of the output (Y_p, or HOOI-CSS's full
// Y(1)). HOOI and randomized HOOI allocate their SVD step's own working
// set every sweep by design — the full unfolding and its Gram, the
// subspace blocks — so one step's bytes, measured by running it alone on
// an output of the run's shape, are subtracted first; HOOI-CSS's Gram step
// is counted in full. The order-6 rank-6 tensors keep the full unfoldings
// at 6.2 MB; the drivers whose sweep allocates only I x R and R x S
// matrices besides the output run on three times the rows.
func TestSweepBytesFlat(t *testing.T) {
	const k, rank = 2, 6
	small, large := testTensor(t, 6, 100, 150, 41), testTensor(t, 6, 300, 300, 42)
	for _, c := range []struct {
		name    string
		run     func(*spsym.Tensor, Options) (*Result, error)
		x       *spsym.Tensor
		compact bool
		svd     func(e *env, it int, y *linalg.Matrix) (*linalg.Matrix, error)
	}{
		{"hooi", HOOI, small, true, hooiSVD},
		{"hoqri", HOQRI, large, true, nil},
		{"hooi-randomized", HOOIRandomized, large, true, randomizedSVD},
		{"hooi-css", HOOICSS, small, false, nil},
	} {
		x := c.x
		for _, workers := range []int{1, 3} {
			opts := Options{Rank: rank, Seed: 5, Workers: workers}
			run := func(iters int) uint64 {
				o := opts
				o.MaxIters = iters
				return totalAlloc(func() {
					if _, err := c.run(x, o); err != nil {
						t.Fatal(err)
					}
				})
			}
			run(k) // warm the process-wide memos
			perSweep := (float64(run(2*k)) - float64(run(k))) / k

			e := stepEnv(t, x, opts)
			y, err := e.ttmc(linalg.RandomOrthonormal(x.Dim, rank, rand.New(rand.NewSource(5))), c.compact)
			if err != nil {
				t.Fatal(err)
			}
			var svdBytes float64
			if c.svd != nil {
				svdBytes = float64(totalAlloc(func() {
					if _, err := c.svd(e, 0, y); err != nil {
						t.Fatal(err)
					}
				}))
			}
			out := float64(memguard.Float64Bytes(int64(y.Rows) * int64(y.Cols)))
			rest := perSweep - svdBytes
			t.Logf("%s workers=%d: %.0f B per sweep, %.0f B of them the SVD step's; output %.0f B (%.3f)",
				c.name, workers, perSweep, svdBytes, out, rest/out)
			if rest >= out/4 {
				t.Errorf("%s workers=%d: a sweep allocates %.0f B beyond its SVD step, a quarter of the %.0f B output is %.0f",
					c.name, workers, rest, out, out/4)
			}
		}
	}
}

// stepEnv is the env run hands the steps, for calling one step alone.
func stepEnv(t *testing.T, x *spsym.Tensor, opts Options) *env {
	t.Helper()
	if err := opts.normalize(x); err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(opts.Workers)
	t.Cleanup(pool.Close)
	return &env{x: x, opts: &opts, p: kernels.PermCounts(x.Order-1, opts.Rank),
		kopts: kernels.Options{Workers: opts.Workers, Exec: pool}}
}
