package tucker

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

func testTensor(t *testing.T, order, dim, nnz int, seed int64) *spsym.Tensor {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestHOOIBasicInvariants(t *testing.T) {
	x := testTensor(t, 3, 8, 25, 1)
	res, err := HOOI(x, Options{Rank: 3, MaxIters: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.U.Rows != 8 || res.U.Cols != 3 {
		t.Fatalf("U shape %dx%d", res.U.Rows, res.U.Cols)
	}
	if e := linalg.OrthonormalityError(res.U); e > 1e-9 {
		t.Errorf("U not orthonormal: %v", e)
	}
	if res.Iters != 15 || len(res.Objective) != 15 {
		t.Errorf("iters=%d traces=%d", res.Iters, len(res.Objective))
	}
	// HOOI is monotone in the objective (ALS property).
	for i := 1; i < len(res.Objective); i++ {
		if res.Objective[i] > res.Objective[i-1]+1e-9*math.Abs(res.Objective[i-1])+1e-12 {
			t.Errorf("objective increased at iter %d: %v -> %v", i, res.Objective[i-1], res.Objective[i])
		}
	}
	// Objective must satisfy 0 <= f <= ||X||².
	for i, f := range res.Objective {
		if f < -1e-8*res.NormX2 || f > res.NormX2*(1+1e-12) {
			t.Errorf("objective out of range at iter %d: %v (||X||²=%v)", i, f, res.NormX2)
		}
	}
}

func TestHOQRIBasicInvariants(t *testing.T) {
	x := testTensor(t, 3, 8, 25, 1)
	res, err := HOQRI(x, Options{Rank: 3, MaxIters: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := linalg.OrthonormalityError(res.U); e > 1e-9 {
		t.Errorf("U not orthonormal: %v", e)
	}
	if res.CoreP.Rows != 3 || int64(res.CoreP.Cols) != dense.Count(2, 3) {
		t.Errorf("CoreP shape %dx%d", res.CoreP.Rows, res.CoreP.Cols)
	}
	// HOQRI is monotonically convergent (Regalia [25]); allow slack for FP.
	for i := 1; i < len(res.Objective); i++ {
		if res.Objective[i] > res.Objective[i-1]+1e-6*math.Abs(res.Objective[i-1])+1e-10 {
			t.Errorf("objective increased at iter %d: %v -> %v", i, res.Objective[i-1], res.Objective[i])
		}
	}
}

// With full rank R = I and a square orthogonal factor, the core carries the
// whole tensor: f = ||X||² - ||C||² = 0 from the very first iteration.
func TestFullRankIsExact(t *testing.T) {
	x := testTensor(t, 3, 5, 12, 3)
	for _, algo := range []func(*spsym.Tensor, Options) (*Result, error){HOOI, HOQRI} {
		res, err := algo(x, Options{Rank: 5, MaxIters: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rel := res.FinalRelError(); rel > 1e-7 {
			t.Errorf("full-rank relative error %v, want ~0", rel)
		}
	}
}

// HOOI and HOQRI must converge to comparable error levels (paper Fig. 9).
func TestHOOIAndHOQRIConvergeSimilarly(t *testing.T) {
	x := testTensor(t, 4, 10, 40, 5)
	opts := Options{Rank: 4, MaxIters: 40, Seed: 7}
	hooi, err := HOOI(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	hoqri, err := HOQRI(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := hooi.FinalRelError(), hoqri.FinalRelError()
	if math.Abs(e1-e2) > 0.05*(e1+e2+1e-12) {
		t.Errorf("final errors diverge: HOOI %v vs HOQRI %v", e1, e2)
	}
}

func TestConvergenceToleranceStopsEarly(t *testing.T) {
	x := testTensor(t, 3, 6, 15, 11)
	res, err := HOOI(x, Options{Rank: 2, MaxIters: 200, Tol: 1e-8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence within 200 iterations")
	}
	if res.Iters >= 200 {
		t.Error("tolerance should stop before MaxIters")
	}
}

func TestOptionsValidation(t *testing.T) {
	x := testTensor(t, 3, 5, 10, 1)
	if _, err := HOOI(x, Options{Rank: 0}); err == nil {
		t.Error("rank 0 must fail")
	}
	if _, err := HOQRI(x, Options{Rank: 6}); err == nil {
		t.Error("rank > dim must fail")
	}
	bad := linalg.NewMatrix(3, 3)
	if _, err := HOOI(x, Options{Rank: 2, U0: bad}); err == nil {
		t.Error("mismatched U0 must fail")
	}
	x1 := spsym.New(1, 5)
	x1.Append([]int{1}, 1)
	if _, err := HOQRI(x1, Options{Rank: 2}); err == nil {
		t.Error("order-1 tensor must fail")
	}
}

func TestU0Override(t *testing.T) {
	x := testTensor(t, 3, 6, 15, 13)
	rng := rand.New(rand.NewSource(99))
	u0 := linalg.RandomOrthonormal(6, 2, rng)
	res, err := HOQRI(x, Options{Rank: 2, MaxIters: 1, U0: u0})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration from a fixed U0 is deterministic.
	res2, err := HOQRI(x, Options{Rank: 2, MaxIters: 1, U0: u0})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(res.U, res2.U); d > 1e-12 {
		t.Errorf("same U0 should give identical single-step results, diff %v", d)
	}
}

// HOSVD init: the Gram matrix assembled from IOU non-zeros must equal the
// Gram of the explicitly expanded unfolding.
func TestHOSVDGramAgainstExpansion(t *testing.T) {
	x := testTensor(t, 3, 6, 14, 17)
	u, err := HOSVDInit(x, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := linalg.OrthonormalityError(u); e > 1e-9 {
		t.Errorf("HOSVD factor not orthonormal: %v", e)
	}
	// Expand X(1) explicitly and compute its Gram.
	idx, vals := x.ExpandPermutations()
	n := x.Order
	g := linalg.NewMatrix(x.Dim, x.Dim)
	type entry struct {
		a   int
		val float64
	}
	cols := map[string][]entry{}
	for k := range vals {
		tuple := idx[k*n : (k+1)*n]
		key := make([]byte, 0, (n-1)*4)
		for _, v := range tuple[1:] {
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		cols[string(key)] = append(cols[string(key)], entry{int(tuple[0]), vals[k]})
	}
	for _, es := range cols {
		for _, e1 := range es {
			for _, e2 := range es {
				g.Data[e1.a*x.Dim+e2.a] += e1.val * e2.val
			}
		}
	}
	want, err := linalg.TopEigenvectors(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Compare column subspaces via projection: |uᵀ·want| should have
	// singular values ~1. Simpler: compare Rayleigh traces.
	proj := linalg.MulTN(u, want)
	// proj should be (close to) orthogonal: |det| = 1. Check Frobenius² = rank.
	fro2 := 0.0
	for _, v := range proj.Data {
		fro2 += v * v
	}
	if math.Abs(fro2-3) > 1e-6 {
		t.Errorf("HOSVD subspace mismatch: ||UᵀW||² = %v, want 3", fro2)
	}
}

func TestHOSVDInitDrivesHOOI(t *testing.T) {
	x := testTensor(t, 3, 7, 20, 19)
	res, err := HOOI(x, Options{Rank: 2, MaxIters: 10, Init: InitHOSVD})
	if err != nil {
		t.Fatal(err)
	}
	if e := linalg.OrthonormalityError(res.U); e > 1e-9 {
		t.Errorf("U not orthonormal: %v", e)
	}
}

func TestHOOIOOMOnLargeUnfolding(t *testing.T) {
	// dim=50, order=6, rank=8: full unfolding 50 x 8^5 = 1.6M doubles
	// = 13 MB > 4 MB guard; HOQRI's compact 50 x S_{5,8} = 50x792 fits.
	x := testTensor(t, 6, 50, 30, 23)
	guard := memguard.New(4 << 20)
	if _, err := HOOI(x, Options{Rank: 8, MaxIters: 2, Guard: guard, Workers: 2}); !errors.Is(err, memguard.ErrOutOfMemory) {
		t.Errorf("HOOI should OOM, got %v", err)
	}
	if _, err := HOQRI(x, Options{Rank: 8, MaxIters: 2, Guard: guard, Workers: 2}); err != nil {
		t.Errorf("HOQRI should fit in the same budget: %v", err)
	}
}

func TestBestRandomInit(t *testing.T) {
	x := testTensor(t, 3, 6, 15, 29)
	u0, err := BestRandomInit(x, 5, Options{Rank: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if e := linalg.OrthonormalityError(u0); e > 1e-9 {
		t.Errorf("BestRandomInit not orthonormal: %v", e)
	}
	// Using it must not error.
	if _, err := HOQRI(x, Options{Rank: 2, MaxIters: 3, U0: u0}); err != nil {
		t.Fatal(err)
	}
}

// BestRandomInit must thread the caller's options into the probe sweeps: a
// pre-canceled context has to stop the restart loop instead of being
// silently dropped (the bug this test pins down — the restarts used to
// rebuild Options from scratch, losing Ctx, Workers, and Pool).
func TestBestRandomInitCancellation(t *testing.T) {
	x := testTensor(t, 3, 6, 15, 29)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BestRandomInit(x, 5, Options{Rank: 2, Seed: 42, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context: want ErrCanceled, got %v", err)
	}
}

// A caller-provided pool must be borrowed by every restart (no nested pool
// creation, pool left open); with no pool, all restarts share exactly one.
func TestBestRandomInitPoolReuse(t *testing.T) {
	x := testTensor(t, 3, 6, 15, 29)

	pool := exec.NewPool(2)
	defer pool.Close()
	before := exec.PoolsCreated()
	if _, err := BestRandomInit(x, 3, Options{Rank: 2, Seed: 42, Workers: 2, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if n := exec.PoolsCreated() - before; n != 0 {
		t.Errorf("caller pool set, yet %d pools were created", n)
	}
	// The borrowed pool must still be usable afterwards.
	if _, err := HOQRI(x, Options{Rank: 2, MaxIters: 1, Workers: 2, Pool: pool}); err != nil {
		t.Errorf("caller pool unusable after BestRandomInit: %v", err)
	}

	before = exec.PoolsCreated()
	if _, err := BestRandomInit(x, 3, Options{Rank: 2, Seed: 42, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if n := exec.PoolsCreated() - before; n != 1 {
		t.Errorf("nil pool with 3 restarts: want exactly 1 pool created, got %d", n)
	}
}

// The sum of squares of the Tucker approximation over the full index space
// equals ||C||² (U has orthonormal columns), tying EvalApprox, CoreP and P
// together.
func TestEvalApproxNormConsistency(t *testing.T) {
	x := testTensor(t, 3, 4, 8, 31)
	res, err := HOOI(x, Options{Rank: 2, MaxIters: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sum2 float64
	idx := make([]int, 3)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				idx[0], idx[1], idx[2] = a, b, c
				v := res.EvalApprox(idx)
				sum2 += v * v
			}
		}
	}
	want := res.CoreNormSquared()
	if math.Abs(sum2-want) > 1e-8*(1+want) {
		t.Errorf("sum of X̂² = %v, ||C||² = %v", sum2, want)
	}
}

// The approximation must be symmetric under index permutation.
func TestEvalApproxSymmetric(t *testing.T) {
	x := testTensor(t, 3, 5, 10, 37)
	res, err := HOQRI(x, Options{Rank: 2, MaxIters: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	base := []int{1, 3, 4}
	idx := make([]int, 3)
	want := res.EvalApprox(base)
	for _, p := range perms {
		for i, pi := range p {
			idx[i] = base[pi]
		}
		if got := res.EvalApprox(idx); math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Errorf("EvalApprox(%v) = %v, want %v", idx, got, want)
		}
	}
}

// TestPhaseTimersPopulated checks every driver's Fig. 8 breakdown: the
// phases its algorithm runs are timed, the others stay zero, and no
// interval is counted twice — the phases sum to at most the call's wall
// time. Two sweeps on a tensor whose kernel passes dominate the run make a
// double-counted final-core pass overshoot the wall time.
func TestPhaseTimersPopulated(t *testing.T) {
	x := testTensor(t, 4, 30, 400, 41)
	for _, d := range resumableDrivers() {
		t.Run(d.name, func(t *testing.T) {
			start := time.Now()
			res, err := d.run(x, Options{Rank: 4, MaxIters: 2, Seed: 1, Workers: 1})
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			p := res.Phases
			if p.TTMc <= 0 || p.Core <= 0 {
				t.Errorf("TTMc or Core not timed: %+v", p)
			}
			if strings.HasPrefix(d.name, "hooi") {
				if p.SVD <= 0 || p.QR != 0 || p.TC != 0 {
					t.Errorf("HOOI family must time SVD only, not QR or TC: %+v", p)
				}
			} else if p.QR <= 0 || p.SVD != 0 || (d.name == "hoqri" && p.TC <= 0) {
				t.Errorf("HOQRI family must time QR and TC, not SVD: %+v", p)
			}
			if p.Total() > wall {
				t.Errorf("phases sum to %v, more than the call's wall time %v: %+v", p.Total(), wall, p)
			}
		})
	}
}

// bitsHash is FNV-1a over the IEEE-754 bit patterns of xs, in order.
func bitsHash(xs ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestDriverGoldenBits pins every driver's output bits at Tol 0: the
// hashes of Objective, U and CoreP were recorded before the drivers shared
// one sweep loop, at one and two workers. The same run with Shards 2 must
// reproduce the two-worker hashes: every driver ignores Shards.
// The rank-13 cell was recorded before MulNT and MulNTWeighted moved to
// 4x2 tiles: its HOOI Gram takes dots 2,197 columns long, and its 13 core
// columns leave a column tail after HOQRI's times-core tiles.
func TestDriverGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	type hashes struct{ objective, u, core uint64 }
	small, wide := testTensor(t, 3, 12, 60, 47), testTensor(t, 4, 40, 300, 51)
	for _, c := range []struct {
		driver      string
		x           *spsym.Tensor
		rank, iters int
		w1, w2      hashes
	}{
		{"hooi", small, 3, 5,
			hashes{0xb7af8f0727d90c4e, 0x80ca38f862a0257f, 0x533ff7bc1ca3a3aa},
			hashes{0x9b10243df6ae0b2f, 0x95343b2b8f263323, 0x7d4f83817263d4c5}},
		{"hoqri", small, 3, 5,
			hashes{0x47999cfd517e935a, 0x6e2668b037e1148c, 0xa302a7391f65f0b1},
			hashes{0x19c7879e0b87e445, 0x40af63ec4db31726, 0xfb03ec90a7209985}},
		{"hooi-randomized", small, 3, 5,
			hashes{0x3d57695bd920df30, 0x7f427df0f751b2b0, 0xeef570e7eda2bada},
			hashes{0x2e0265bbb6ccf212, 0xf1a41e5cdf73e7ac, 0xb7bb46bda2eb1fe3}},
		{"hooi-css", small, 3, 5,
			hashes{0x5d46b97f38fcb18e, 0x80ca38f862a0257f, 0x52ed60833c744522},
			hashes{0x9b10243df6ae0b2f, 0x95343b2b8f263323, 0x0e577223c1abc923}},
		{"hoqri-nary", small, 3, 5,
			hashes{0xdb370a06cf8d0240, 0x161c53ff846ec5d2, 0x109b37592e0a81bc},
			hashes{0x5def824190565696, 0x8e9bd71bdd9496ab, 0x88cb81c4342b535a}},
		{"hooi", wide, 13, 3,
			hashes{0xec4b6797ea9c376e, 0xc65a0aaf02c3669a, 0x25d9494f2ad13f99},
			hashes{0xec4b6797ea9c376e, 0x20ed1a1b5055337e, 0x5be6e61d858b61c2}},
		{"hoqri", wide, 13, 3,
			hashes{0xe2d1b409a0614439, 0x25bc56b9c83e5bf9, 0xa83b474fa0aec86d},
			hashes{0xe2d1b409a0614439, 0x99857a4c077ce061, 0xe36eb805bd06901d}},
	} {
		run := driverByName(t, c.driver)
		for _, cfg := range []struct {
			name            string
			workers, shards int
			want            hashes
		}{{"workers=1", 1, 0, c.w1}, {"workers=2", 2, 0, c.w2}, {"shards=2", 2, 2, c.w2}} {
			res, err := run(c.x, Options{Rank: c.rank, MaxIters: c.iters, Seed: 9, Workers: cfg.workers, Shards: cfg.shards})
			if err != nil {
				t.Fatalf("%s rank=%d %s: %v", c.driver, c.rank, cfg.name, err)
			}
			got := hashes{bitsHash(res.Objective), bitsHash(res.U.Data), bitsHash(res.CoreP.Data)}
			if got != cfg.want {
				t.Errorf("%s rank=%d %s: hashes {%#016x, %#016x, %#016x}, want {%#016x, %#016x, %#016x}",
					c.driver, c.rank, cfg.name, got.objective, got.u, got.core, cfg.want.objective, cfg.want.u, cfg.want.core)
			}
		}
	}
}

// leadingLeftSingular must agree between the row-Gram (I <= cols) and
// column-Gram (I > cols) code paths: both must span the leading
// eigenvectors of the explicitly formed Y(1)·Y(1)ᵀ, found by Jacobi. HOOI
// and HOOI-CSS on the same tensors are pinned bit for bit: the hashes were
// recorded when MulNT still walked both Gram triangles, QL rotated columns,
// and each driver had its own copy of the SVD step.
func TestLeadingLeftSingularBothSides(t *testing.T) {
	// order 3, r=3 -> cols = 9. dim 6 (< 9) takes the row-Gram path;
	// dim 15 (> 9) takes the column-Gram path.
	for _, tc := range []struct {
		dim                     int
		objective, cssObjective uint64 // bits of the final Objective
		u                       uint64 // bitsHash of U, the same for both drivers
	}{
		{6, 0x402ac4e3f3e6e34c, 0x402ac4e3f3e6e348, 0x977ed76c643456dd},
		{15, 0x403af434c1eb8914, 0x403af434c1eb8914, 0x20b83c258fb30f1d},
	} {
		x := testTensor(t, 3, tc.dim, 20, 43)
		u0 := linalg.RandomOrthonormal(tc.dim, 3, rand.New(rand.NewSource(44)))

		yp, err := kernels.S3TTMcSymProp(x, u0, kernels.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		yFull := kernels.ExpandCompactColumns(yp, 3, 3)
		u, err := leadingLeftSingular(&env{opts: &Options{Rank: 3}}, yFull)
		if err != nil {
			t.Fatalf("dim=%d: %v", tc.dim, err)
		}
		gram := linalg.NewMatrix(tc.dim, tc.dim)
		for i := 0; i < tc.dim; i++ {
			for j := 0; j < tc.dim; j++ {
				var s float64
				for k := 0; k < yFull.Cols; k++ {
					s += yFull.At(i, k) * yFull.At(j, k)
				}
				gram.Set(i, j, s)
			}
		}
		_, vecs, err := linalg.JacobiEig(gram, 0)
		if err != nil {
			t.Fatal(err)
		}
		v := linalg.NewMatrix(tc.dim, 3)
		for i := 0; i < tc.dim; i++ {
			copy(v.Row(i), vecs.Row(i)[:3])
		}
		// Equal subspaces have equal orthogonal projectors U·Uᵀ = V·Vᵀ.
		if d := linalg.MaxAbsDiff(linalg.MulNT(u, u), linalg.MulNT(v, v)); d > 1e-8 {
			t.Errorf("dim=%d: projector differs from Jacobi's by %v", tc.dim, d)
		}

		opts := Options{Rank: 3, MaxIters: 3, U0: u0, Workers: 2}
		for _, d := range []struct {
			name      string
			run       func(*spsym.Tensor, Options) (*Result, error)
			objective uint64
		}{{"HOOI", HOOI, tc.objective}, {"HOOICSS", HOOICSS, tc.cssObjective}} {
			res, err := d.run(x, opts)
			if err != nil {
				t.Fatalf("%s dim=%d: %v", d.name, tc.dim, err)
			}
			if e := linalg.OrthonormalityError(res.U); e > 1e-8 {
				t.Errorf("%s dim=%d: U not orthonormal: %v", d.name, tc.dim, e)
			}
			if runtime.GOARCH != "amd64" {
				continue // hashes recorded on amd64; other targets may fuse multiply-adds
			}
			if got := math.Float64bits(res.Objective[len(res.Objective)-1]); got != d.objective {
				t.Errorf("%s dim=%d: final Objective bits %#016x, want %#016x", d.name, tc.dim, got, d.objective)
			}
			if got := bitsHash(res.U.Data); got != tc.u {
				t.Errorf("%s dim=%d: U hash %#016x, want %#016x", d.name, tc.dim, got, tc.u)
			}
		}
	}
}

func TestCoreFullConsistent(t *testing.T) {
	x := testTensor(t, 3, 6, 15, 113)
	res, err := HOQRI(x, Options{Rank: 2, MaxIters: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full := res.CoreFull()
	if len(full) != 8 { // 2^3
		t.Fatalf("core size %d, want 8", len(full))
	}
	// Norm agreement with the weighted compact norm.
	var sum float64
	for _, v := range full {
		sum += v * v
	}
	if want := res.CoreNormSquared(); math.Abs(sum-want) > 1e-10*(1+want) {
		t.Errorf("full core norm %v, compact says %v", sum, want)
	}
	// EvalApprox at an index equals the contraction computed from CoreFull.
	idx := []int{1, 3, 5}
	var manual float64
	for r1 := 0; r1 < 2; r1++ {
		for r2 := 0; r2 < 2; r2++ {
			for r3 := 0; r3 < 2; r3++ {
				c := full[r1*4+r2*2+r3]
				manual += c * res.U.At(idx[0], r1) * res.U.At(idx[1], r2) * res.U.At(idx[2], r3)
			}
		}
	}
	if got := res.EvalApprox(idx); math.Abs(got-manual) > 1e-10*(1+math.Abs(manual)) {
		t.Errorf("EvalApprox %v vs manual contraction %v", got, manual)
	}
}

// A single-non-zero tensor makes the chain product rank-1; requesting a
// higher rank exercises the rank-deficient paths of the SVD step (zero
// singular values, orthonormal completion) in both Gram orientations.
func TestHOOIRankDeficientUnfolding(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dim, rank int
	}{
		{"row-gram-side", 4, 3},  // dim 4 <= cols
		{"col-gram-side", 40, 3}, // dim 40 > cols = rank^2
	} {
		x := spsym.New(3, tc.dim)
		x.Append([]int{0, 1, 2}, 2.0)
		x.Canonicalize()
		res, err := HOOI(x, Options{Rank: tc.rank, MaxIters: 3, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e := linalg.OrthonormalityError(res.U); e > 1e-8 {
			t.Errorf("%s: U not orthonormal on rank-deficient input: %v", tc.name, e)
		}
		// One non-zero, full reconstruction possible: error should drop
		// substantially below 1.
		if rel := res.FinalRelError(); rel > 0.9 {
			t.Errorf("%s: relative error %v on a rank-1 tensor", tc.name, rel)
		}
	}
}
