package tucker

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
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

func TestPhaseTimersPopulated(t *testing.T) {
	x := testTensor(t, 3, 8, 30, 41)
	hooi, err := HOOI(x, Options{Rank: 3, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hooi.Phases.TTMc <= 0 || hooi.Phases.SVD <= 0 {
		t.Error("HOOI phases not timed")
	}
	if hooi.Phases.QR != 0 {
		t.Error("HOOI must not report QR time")
	}
	hoqri, err := HOQRI(x, Options{Rank: 3, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hoqri.Phases.TTMc <= 0 || hoqri.Phases.QR <= 0 || hoqri.Phases.TC <= 0 {
		t.Error("HOQRI phases not timed")
	}
	if hoqri.Phases.SVD != 0 {
		t.Error("HOQRI must not report SVD time")
	}
	if hoqri.Phases.Total() <= 0 {
		t.Error("total phase time must be positive")
	}
}

// leadingLeftSingular must agree between the row-Gram (I <= cols) and
// column-Gram (I > cols) code paths.
func TestLeadingLeftSingularBothSides(t *testing.T) {
	// order 3, r=3 -> cols = 9. dim 6 (< 9) takes the row-Gram path;
	// dim 15 (> 9) takes the column-Gram path. Verify both give left
	// singular vectors by checking the subspace maximizes ||YᵀU||.
	for _, dim := range []int{6, 15} {
		x := testTensor(t, 3, dim, 20, 43)
		rng := rand.New(rand.NewSource(44))
		u := linalg.RandomOrthonormal(dim, 3, rng)
		res, err := HOOI(x, Options{Rank: 3, MaxIters: 3, U0: u})
		if err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		if e := linalg.OrthonormalityError(res.U); e > 1e-8 {
			t.Errorf("dim=%d: U not orthonormal: %v", dim, e)
		}
	}
}

func TestOnIterationCallback(t *testing.T) {
	x := testTensor(t, 3, 8, 25, 91)
	var seen []int
	res, err := HOQRI(x, Options{
		Rank: 2, MaxIters: 20, Seed: 1,
		OnIteration: func(iter int, relErr float64) bool {
			seen = append(seen, iter)
			if relErr < 0 || relErr > 1 {
				t.Errorf("callback relErr %v out of range", relErr)
			}
			return iter < 5 // stop after 5 sweeps
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 5 {
		t.Errorf("iters = %d, want 5 (callback stop)", res.Iters)
	}
	if len(seen) != 5 || seen[0] != 1 || seen[4] != 5 {
		t.Errorf("callback sequence %v", seen)
	}
	if res.Converged {
		t.Error("callback stop must not report convergence")
	}
	// HOOI honors it too.
	calls := 0
	hooi, err := HOOI(x, Options{
		Rank: 2, MaxIters: 20, Seed: 1,
		OnIteration: func(int, float64) bool { calls++; return calls < 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooi.Iters != 3 {
		t.Errorf("HOOI iters = %d, want 3", hooi.Iters)
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
