package kernels

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// scatterKernels are the five owner-computes scatter outputs: SymProp on
// the fused evaluators and on the plan interpreter, CSS, UCOO, and the
// n-ary kernel's A.
var scatterKernels = []struct {
	name string
	run  func(*spsym.Tensor, *linalg.Matrix, Options) (*linalg.Matrix, error)
}{
	{"symprop", S3TTMcSymProp},
	{"symprop-off", func(x *spsym.Tensor, u *linalg.Matrix, o Options) (*linalg.Matrix, error) {
		o.Fusion = FusionOff
		return S3TTMcSymProp(x, u, o)
	}},
	{"css", S3TTMcCSS},
	{"ucoo", S3TTMcUCOO},
	{"nary", func(x *spsym.Tensor, u *linalg.Matrix, o Options) (*linalg.Matrix, error) {
		res, err := NaryTTMcTC(x, u, o)
		if err != nil {
			return nil, err
		}
		return res.A, nil
	}},
}

// normalCase is a tensor with standard-normal values, so a reordered sum
// rounds differently and shows up in the output bits.
func normalCase(t *testing.T, order, dim, nnz, r int, seed int64, forbidRepeats bool) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed,
		Values: spsym.ValueNormal, ForbidRepeats: forbidRepeats})
	if err != nil {
		t.Fatal(err)
	}
	return x, linalg.RandomNormal(dim, r, rand.New(rand.NewSource(seed+1000)))
}

func bitsHash(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sharedOptions is one Tucker run's worth of cross-call state: plan cache,
// workspace pool, schedule cache and engine pool.
func sharedOptions(t *testing.T, workers int) Options {
	pool := exec.NewPool(workers)
	t.Cleanup(pool.Close)
	return Options{Workers: workers, Exec: pool, PlanCache: &css.Cache{}, Pool: &WorkspacePool{}, Schedules: &ScheduleCache{}}
}

// TestKernelGoldenBits pins the output bits of every scatter kernel on
// normal-valued tensors, with and without repeated indices, at one and
// three workers: the hashes were recorded while each kernel still ran its
// own owner-computes loop. Each configuration runs twice on shared caches
// and pools, so the warm call is pinned too.
func TestKernelGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	for _, fx := range []struct {
		name               string
		order, dim, nnz, r int
		seed               int64
		distinct           bool
		hashes             map[string][2]uint64 // kernel -> {workers=1, workers=3}
	}{
		{"order3r4-distinct", 3, 30, 300, 4, 81, true, map[string][2]uint64{
			"symprop":     {0x8297a84499f1f83e, 0xb130e722fe9d88b3},
			"symprop-off": {0x8297a84499f1f83e, 0xb130e722fe9d88b3},
			"css":         {0xcefe06b7987b86ee, 0x48bc1a23355541b1},
			"ucoo":        {0x7e33f909e979f106, 0x3f21ea81e816e7b6},
			"nary":        {0xe207e91e3f32d39e, 0x0aa4b86deb5fa321},
		}},
		{"order5r4-distinct", 5, 14, 120, 4, 82, true, map[string][2]uint64{
			"symprop":     {0x2bcdf611072a02a9, 0xe50af2af0846a858},
			"symprop-off": {0x2bcdf611072a02a9, 0xe50af2af0846a858},
			"css":         {0x7af858966e37e355, 0xe9ae442b38a98757},
			"ucoo":        {0x3628dd05e8acd688, 0x78e475a419391f46},
			"nary":        {0x3989a095627f53be, 0xffe8d736f4befb22},
		}},
		{"order4r4-repeats", 4, 12, 200, 4, 83, false, map[string][2]uint64{
			"symprop":     {0x0b889dbbbf748b24, 0x04c29ae344bc1650},
			"symprop-off": {0x0b889dbbbf748b24, 0x04c29ae344bc1650},
			"css":         {0x7312c80d0becd330, 0xf071d8d060be26f3},
			"ucoo":        {0x70f26f5b4d1c47e0, 0x92a0ff007cd942d2},
			"nary":        {0xd4372392021ee4ab, 0x1f8544f412608329},
		}},
		{"order4r3-repeats", 4, 12, 200, 3, 84, false, map[string][2]uint64{
			"symprop":     {0xd8f9dfb01bd81943, 0x9ea65bf339be8df7},
			"symprop-off": {0xd8f9dfb01bd81943, 0x9ea65bf339be8df7},
			"css":         {0x9d23b6b39eba81a4, 0x45fc86ca50b026ff},
			"ucoo":        {0x619385ef879a9d1f, 0xe013eec1a15bf19e},
			"nary":        {0xdd3d5b4a706ab25c, 0xc743d1c3336bf029},
		}},
	} {
		x, u := normalCase(t, fx.order, fx.dim, fx.nnz, fx.r, fx.seed, fx.distinct)
		for _, k := range scatterKernels {
			for wi, workers := range []int{1, 3} {
				opts := sharedOptions(t, workers)
				for call := 0; call < 2; call++ {
					y, err := k.run(x, u, opts)
					if err != nil {
						t.Fatalf("%s/%s/workers=%d: %v", fx.name, k.name, workers, err)
					}
					if got, want := bitsHash(y.Data), fx.hashes[k.name][wi]; got != want {
						t.Errorf("%s/%s/workers=%d call %d: hash %#016x, want %#016x",
							fx.name, k.name, workers, call, got, want)
					}
				}
			}
		}
	}
}

// TestScatterAllocsFlat checks at run time that the per-non-zero path of
// every scatter kernel allocates nothing: on shared caches and pools, a
// warm call on a tensor with 4N non-zeros allocates exactly as much as one
// with N. The emitters lie outside symlint's hotalloc view (it inspects
// only exec.Plan Body literals), so this test is their allocation check.
// The tensors are all-distinct: with a single lattice signature, one call
// gives every pooled workspace its buffers, whichever worker draws it, so
// the warm state does not depend on the schedule.
func TestScatterAllocsFlat(t *testing.T) {
	for _, k := range scatterKernels {
		var allocs [2]float64
		for i, nnz := range []int{400, 1600} {
			x, u := normalCase(t, 3, 40, nnz, 4, 91, true)
			opts := sharedOptions(t, 3)
			run := func() {
				if _, err := k.run(x, u, opts); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: plans, workspaces, schedule, spill buffers
			allocs[i] = testing.AllocsPerRun(5, run)
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations per call at 400 non-zeros, %v at 1600", k.name, allocs[0], allocs[1])
		}
		t.Logf("%s: %v allocations per call", k.name, allocs[0])
	}
}
