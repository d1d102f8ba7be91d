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

// scatterKernels are the six owner-computes scatter outputs: SymProp on
// the fused evaluators and on the plan interpreter, CSS, UCOO, the n-ary
// kernel's A and CP's S³MTTKRP.
var scatterKernels = []struct {
	name string
	run  func(*spsym.Tensor, *linalg.Matrix, Options) (*linalg.Matrix, error)
}{
	{"symprop", S3TTMcSymProp},
	{"symprop-off", func(x *spsym.Tensor, u *linalg.Matrix, o Options) (*linalg.Matrix, error) {
		o.noFusion = true
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
	{"mttkrp", S3MTTKRP},
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

// paddedCase is a hypergraph-shaped tensor with standard-normal values:
// each non-zero draws 2..order nodes of [0, nodes), with replacement, and
// pads the rest of its tuple with the dummy node `nodes`, so one tensor
// mixes many lattice signatures whose nodes carry 1 to order-1 edges.
func paddedCase(t *testing.T, order, nodes, nnz, r int, seed int64) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := spsym.New(order, nodes+1)
	idx := make([]int, order)
	for k := 0; k < nnz; k++ {
		c := 2 + rng.Intn(order-1)
		for i := range idx {
			idx[i] = nodes
			if i < c {
				idx[i] = rng.Intn(nodes)
			}
		}
		x.Append(idx, rng.NormFloat64())
	}
	x.Canonicalize()
	return x, linalg.RandomNormal(nodes+1, r, rand.New(rand.NewSource(seed+1000)))
}

// TestKernelGoldenBits pins the output bits of every scatter kernel on
// normal-valued tensors, with and without repeated indices, at one and
// three workers: the hashes were recorded while each kernel still ran its
// own owner-computes loop. Each configuration runs twice on shared caches
// and pools, so the warm call is pinned too. The padded order-8 fixture
// pins the plan interpreter on a wide lattice off the fused grid (SymProp
// rows only: CSS would exceed its tree charge there); its hashes were
// recorded while K buffers were still stored in lexicographic order. The
// mttkrp row's workers=1 hashes were recorded from the lock-striped CP
// kernel that S3MTTKRP replaced, whose one-worker run added in the same
// order; its workers=3 hashes are the owner-computes run's.
func TestKernelGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	for _, fx := range []struct {
		name               string
		order, dim, nnz, r int
		seed               int64
		distinct, padded   bool
		hashes             map[string][2]uint64 // kernel -> {workers=1, workers=3}
	}{
		{"order3r4-distinct", 3, 30, 300, 4, 81, true, false, map[string][2]uint64{
			"symprop":     {0x8297a84499f1f83e, 0xb130e722fe9d88b3},
			"symprop-off": {0x8297a84499f1f83e, 0xb130e722fe9d88b3},
			"css":         {0xcefe06b7987b86ee, 0x48bc1a23355541b1},
			"ucoo":        {0x7e33f909e979f106, 0x3f21ea81e816e7b6},
			"nary":        {0xe207e91e3f32d39e, 0x0aa4b86deb5fa321},
			"mttkrp":      {0x56cf9dcc537559c3, 0xa4edfd85532641c1},
		}},
		{"order5r4-distinct", 5, 14, 120, 4, 82, true, false, map[string][2]uint64{
			"symprop":     {0x2bcdf611072a02a9, 0xe50af2af0846a858},
			"symprop-off": {0x2bcdf611072a02a9, 0xe50af2af0846a858},
			"css":         {0x7af858966e37e355, 0xe9ae442b38a98757},
			"ucoo":        {0x3628dd05e8acd688, 0x78e475a419391f46},
			"nary":        {0x3989a095627f53be, 0xffe8d736f4befb22},
			"mttkrp":      {0x6162bbd8e56207f7, 0xd8c3fbf4d8840c37},
		}},
		{"order4r4-repeats", 4, 12, 200, 4, 83, false, false, map[string][2]uint64{
			"symprop":     {0x0b889dbbbf748b24, 0x04c29ae344bc1650},
			"symprop-off": {0x0b889dbbbf748b24, 0x04c29ae344bc1650},
			"css":         {0x7312c80d0becd330, 0xf071d8d060be26f3},
			"ucoo":        {0x70f26f5b4d1c47e0, 0x92a0ff007cd942d2},
			"nary":        {0xd4372392021ee4ab, 0x1f8544f412608329},
			"mttkrp":      {0xcd1a73ca353e6736, 0xb083a7327b3e8eb8},
		}},
		{"order4r3-repeats", 4, 12, 200, 3, 84, false, false, map[string][2]uint64{
			"symprop":     {0xd8f9dfb01bd81943, 0x9ea65bf339be8df7},
			"symprop-off": {0xd8f9dfb01bd81943, 0x9ea65bf339be8df7},
			"css":         {0x9d23b6b39eba81a4, 0x45fc86ca50b026ff},
			"ucoo":        {0x619385ef879a9d1f, 0xe013eec1a15bf19e},
			"nary":        {0xdd3d5b4a706ab25c, 0xc743d1c3336bf029},
			"mttkrp":      {0xe4a135ceb35e356c, 0xd9c947a5638e623c},
		}},
		{"order8r6-padded", 8, 16, 150, 6, 85, false, true, map[string][2]uint64{
			"symprop":     {0xdbf4373effd5fbd8, 0xf775914e2035afeb},
			"symprop-off": {0xdbf4373effd5fbd8, 0xf775914e2035afeb},
			"mttkrp":      {0x829e4c6230dcca0e, 0x5fa3cbf714dbe07a},
		}},
	} {
		x, u := normalCase(t, fx.order, fx.dim, fx.nnz, fx.r, fx.seed, fx.distinct)
		if fx.padded {
			x, u = paddedCase(t, fx.order, fx.dim, fx.nnz, fx.r, fx.seed)
		}
		for _, k := range scatterKernels {
			hashes, ok := fx.hashes[k.name]
			if !ok {
				continue
			}
			for wi, workers := range []int{1, 3} {
				opts := sharedOptions(t, workers)
				for call := 0; call < 2; call++ {
					y, err := k.run(x, u, opts)
					if err != nil {
						t.Fatalf("%s/%s/workers=%d: %v", fx.name, k.name, workers, err)
					}
					if got, want := bitsHash(y.Data), hashes[wi]; got != want {
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
// The padded tensors mix many lattice signatures: a workspace holds one
// buffer set for every plan, so the warm state does not depend on which
// worker drew which signature.
func TestScatterAllocsFlat(t *testing.T) {
	cases := []struct {
		name  string
		build func(nnz int) (*spsym.Tensor, *linalg.Matrix)
	}{
		{"distinct", func(nnz int) (*spsym.Tensor, *linalg.Matrix) { return normalCase(t, 3, 40, nnz, 4, 91, true) }},
		{"padded", func(nnz int) (*spsym.Tensor, *linalg.Matrix) { return paddedCase(t, 4, 40, nnz, 3, 92) }},
	}
	for _, c := range cases {
		for _, k := range scatterKernels {
			var allocs [2]float64
			for i, nnz := range []int{400, 1600} {
				x, u := c.build(nnz)
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
				t.Errorf("%s/%s: %v allocations per call at 400 non-zeros, %v at 1600", c.name, k.name, allocs[0], allocs[1])
			}
			t.Logf("%s/%s: %v allocations per call", c.name, k.name, allocs[0])
		}
	}
}

// heldBytes is what a workspace holds: its K buffers, colex tables and lex
// scratch.
func heldBytes(ws *workspace) int64 {
	var n int64
	for _, lvl := range ws.levels {
		for _, b := range lvl {
			n += 8 * int64(len(b))
		}
	}
	for _, off := range ws.off {
		n += 4 * int64(len(off))
	}
	return n + 4*int64(len(ws.gather)) + 8*int64(len(ws.lex))
}

// A pooled workspace holds exactly what latticeBytes charges the memory
// guard per worker, however many lattice signatures its calls met: one
// buffer set sized for the widest lattice serves every plan.
func TestWorkspaceHoldsLatticeBytes(t *testing.T) {
	x, u := paddedCase(t, 6, 30, 300, 3, 93)
	for _, compact := range []bool{true, false} {
		opts := sharedOptions(t, 3)
		run := S3TTMcSymProp
		if !compact {
			run = S3TTMcCSS
		}
		if _, err := run(x, u, opts); err != nil {
			t.Fatal(err)
		}
		if n := opts.PlanCache.Len(); n < 10 {
			t.Fatalf("padded tensor met %d signatures; the test needs many", n)
		}
		if opts.Pool.Len() == 0 {
			t.Fatal("no workspace returned to the pool")
		}
		want := latticeBytes(x.Order, u.Cols, compact)
		for _, ws := range opts.Pool.free {
			if got := heldBytes(ws); got != want {
				t.Errorf("compact=%v: pooled workspace holds %d bytes after %d signatures; latticeBytes charges %d",
					compact, got, opts.PlanCache.Len(), want)
			}
		}
	}
}
