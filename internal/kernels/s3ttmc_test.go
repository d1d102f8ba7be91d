package kernels

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// referenceTTMc computes Y(1) by brute force over the expanded non-zeros.
// This is the strongest correctness oracle in the repo: the SymProp, CSS,
// and SPLATT kernels must all agree with it.
func referenceTTMc(x *spsym.Tensor, u *linalg.Matrix) *linalg.Matrix {
	r := u.Cols
	n := x.Order
	outCols := int(dense.Pow64(int64(r), n-1))
	y := linalg.NewMatrix(x.Dim, outCols)
	idx, vals := x.ExpandPermutations()
	rIdx := make([]int, n-1)
	for k := range vals {
		tuple := idx[k*n : (k+1)*n]
		row := y.Row(int(tuple[0]))
		for i := range rIdx {
			rIdx[i] = 0
		}
		for lin := 0; lin < outCols; lin++ {
			p := vals[k]
			for a := 0; a < n-1; a++ {
				p *= u.At(int(tuple[a+1]), rIdx[a])
			}
			row[lin] += p
			for a := n - 2; a >= 0; a-- {
				rIdx[a]++
				if rIdx[a] < r {
					break
				}
				rIdx[a] = 0
			}
		}
	}
	return y
}

func randomCase(t *testing.T, order, dim, nnz, r int, seed int64) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	u := linalg.RandomNormal(dim, r, rand.New(rand.NewSource(seed+1000)))
	return x, u
}

func TestSymPropMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		order, dim, nnz, r int
	}{
		{2, 5, 8, 3},
		{3, 6, 12, 2},
		{3, 6, 12, 5},
		{4, 5, 10, 3},
		{5, 4, 8, 2},
		{6, 4, 6, 2},
	} {
		x, u := randomCase(t, tc.order, tc.dim, tc.nnz, tc.r, int64(tc.order*100+tc.r))
		yp, err := S3TTMcSymProp(x, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if yp.Rows != tc.dim || int64(yp.Cols) != dense.Count(tc.order-1, tc.r) {
			t.Fatalf("Yp shape %dx%d wrong", yp.Rows, yp.Cols)
		}
		got := ExpandCompactColumns(yp, x.Order, tc.r)
		want := referenceTTMc(x, u)
		if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("order=%d r=%d: SymProp differs from reference by %v", tc.order, tc.r, d)
		}
	}
}

func TestCSSMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		order, dim, nnz, r int
	}{
		{2, 5, 8, 3},
		{3, 6, 12, 4},
		{4, 5, 10, 2},
		{5, 4, 8, 3},
	} {
		x, u := randomCase(t, tc.order, tc.dim, tc.nnz, tc.r, int64(tc.order*10+tc.r))
		got, err := S3TTMcCSS(x, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTTMc(x, u)
		if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("order=%d r=%d: CSS differs from reference by %v", tc.order, tc.r, d)
		}
	}
}

func TestSPLATTMatchesReference(t *testing.T) {
	x, u := randomCase(t, 4, 6, 15, 3, 77)
	got, err := TTMcSPLATT(x, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTTMc(x, u)
	if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("SPLATT differs from reference by %v", d)
	}
}

// TestSPLATTReleasesTreeCharge: a built SPLATT holds its CSF tree's charge
// across TTMc calls until Release, and the one-shot TTMcSPLATT, which drops
// the tree on return, leaves nothing charged.
func TestSPLATTReleasesTreeCharge(t *testing.T) {
	x, u := randomCase(t, 4, 6, 15, 3, 78)
	guard := memguard.New(1 << 30)
	if _, err := TTMcSPLATT(x, u, Options{Guard: guard}); err != nil {
		t.Fatal(err)
	}
	if guard.Used() != 0 {
		t.Fatalf("TTMcSPLATT left %d bytes charged", guard.Used())
	}
	s, err := NewSPLATT(x, guard)
	if err != nil {
		t.Fatal(err)
	}
	held := guard.Used()
	if held == 0 {
		t.Fatal("NewSPLATT charged nothing for its tree")
	}
	if _, err := s.TTMc(u, Options{Guard: guard}); err != nil {
		t.Fatal(err)
	}
	if guard.Used() != held {
		t.Errorf("guard holds %d bytes after TTMc, want the tree's %d", guard.Used(), held)
	}
	s.Release()
	if guard.Used() != 0 {
		t.Errorf("Release left %d bytes charged", guard.Used())
	}
}

// The three implementations must agree on tensors dense with repeated
// indices (hypergraph dummy-node padding produces many).
func TestKernelsAgreeOnDiagonalHeavyTensor(t *testing.T) {
	x := spsym.New(4, 5)
	x.Append([]int{0, 0, 0, 0}, 1.5)
	x.Append([]int{0, 0, 1, 2}, -2.0)
	x.Append([]int{1, 1, 2, 2}, 0.7)
	x.Append([]int{3, 3, 3, 4}, 3.0)
	x.Append([]int{0, 1, 2, 3}, -0.4)
	x.Canonicalize()
	u := linalg.RandomNormal(5, 3, rand.New(rand.NewSource(5)))

	want := referenceTTMc(x, u)
	yp, err := S3TTMcSymProp(x, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(ExpandCompactColumns(yp, 4, 3), want); d > 1e-10 {
		t.Errorf("SymProp differs by %v", d)
	}
	cssY, err := S3TTMcCSS(x, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(cssY, want); d > 1e-10 {
		t.Errorf("CSS differs by %v", d)
	}
	spY, err := TTMcSPLATT(x, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(spY, want); d > 1e-10 {
		t.Errorf("SPLATT differs by %v", d)
	}
}

// Property test: for random small tensors, SymProp (expanded) equals CSS.
func TestSymPropEqualsCSSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(4)
		dim := 2 + rng.Intn(5)
		r := 1 + rng.Intn(4)
		nnz := 1 + rng.Intn(15)
		x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal})
		if err != nil {
			return false
		}
		u := linalg.RandomNormal(dim, r, rng)
		yp, err := S3TTMcSymProp(x, u, Options{})
		if err != nil {
			return false
		}
		cssY, err := S3TTMcCSS(x, u, Options{})
		if err != nil {
			return false
		}
		return linalg.MaxAbsDiff(ExpandCompactColumns(yp, order, r), cssY) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Worker count must not affect results (determinism up to FP reassociation
// is exact here because each row's updates are serialized by its lock and
// addition order per row is the only source of variation; compare against
// tolerance).
func TestSymPropWorkerCountsAgree(t *testing.T) {
	x, u := randomCase(t, 4, 8, 40, 3, 99)
	base, err := S3TTMcSymProp(x, u, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := S3TTMcSymProp(x, u, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if d := linalg.MaxAbsDiff(base, got); d > 1e-10 {
			t.Errorf("workers=%d differs from sequential by %v", w, d)
		}
	}
}

func TestS3TTMcTCMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		order, dim, nnz, r int
	}{
		{3, 6, 12, 3},
		{4, 5, 10, 2},
		{5, 4, 8, 2},
	} {
		x, u := randomCase(t, tc.order, tc.dim, tc.nnz, tc.r, int64(tc.order*7+tc.r))
		res, err := S3TTMcTC(x, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: full Y(1), full C(1) = Uᵀ Y(1)... careful: C(1)
		// unfolds the core over modes 2..N, so A = Y(1) · C(1)ᵀ with
		// C(1) = Uᵀ·Y(1) on matching full columns.
		yFull := referenceTTMc(x, u)
		cFull := linalg.MulTN(u, yFull)
		wantA := linalg.MulNT(yFull, cFull)
		if d := linalg.MaxAbsDiff(res.A, wantA); d > 1e-8 {
			t.Errorf("order=%d: A differs from brute force by %v", tc.order, d)
		}
		// Property 2: expanding compact Cp must equal full C.
		cExpanded := ExpandCompactColumns(res.Cp, tc.order, tc.r)
		if d := linalg.MaxAbsDiff(cExpanded, cFull); d > 1e-8 {
			t.Errorf("order=%d: Cp expansion differs by %v", tc.order, d)
		}
		// Core norm via P weights must equal the full core norm.
		want := 0.0
		for _, v := range cFull.Data {
			want += v * v
		}
		if got := res.CoreNormSquared(); !close(got, want, 1e-8) {
			t.Errorf("order=%d: core norm %v, want %v", tc.order, got, want)
		}
	}
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return d <= tol*scale
}

func TestPermCountsMemoized(t *testing.T) {
	a := PermCounts(3, 4)
	b := PermCounts(3, 4)
	if &a[0] != &b[0] {
		t.Error("PermCounts should return the memoized slice")
	}
	// Spot check: order-3 rank-2 counts are (0,0,0):1 (0,0,1):3 (0,1,1):3 (1,1,1):1.
	c := PermCounts(3, 2)
	want := []float64{1, 3, 3, 1}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("PermCounts(3,2) = %v, want %v", c, want)
		}
	}
}

func TestKernelValidation(t *testing.T) {
	x, _ := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 4, NNZ: 5, Seed: 1})
	badU := linalg.NewMatrix(3, 2) // wrong row count
	if _, err := S3TTMcSymProp(x, badU, Options{}); err == nil {
		t.Error("row mismatch must fail")
	}
	if _, err := S3TTMcCSS(x, badU, Options{}); err == nil {
		t.Error("row mismatch must fail (CSS)")
	}
	noCols := linalg.NewMatrix(4, 0)
	if _, err := S3TTMcSymProp(x, noCols, Options{}); err == nil {
		t.Error("zero-column factor must fail")
	}
	x1 := spsym.New(1, 4)
	x1.Append([]int{2}, 1.0)
	u := linalg.NewMatrix(4, 2)
	if _, err := S3TTMcSymProp(x1, u, Options{}); err == nil {
		t.Error("order-1 tensor must fail")
	}
	if _, err := NewSPLATT(x1, nil); err == nil {
		t.Error("order-1 tensor must fail (SPLATT)")
	}
}

func TestSymPropOOM(t *testing.T) {
	// dim 2000 x S_{6,8} = 3003 compact columns = ~48 MB; 1 MB guard fails.
	x, err := spsym.Random(spsym.RandomOptions{Order: 7, Dim: 2000, NNZ: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	u := linalg.RandomNormal(2000, 8, rand.New(rand.NewSource(4)))
	if _, err := S3TTMcSymProp(x, u, Options{Guard: memguard.New(1 << 20)}); !errors.Is(err, memguard.ErrOutOfMemory) {
		t.Errorf("want ErrOutOfMemory, got %v", err)
	}
}

func TestCSSOOMBeforeSymProp(t *testing.T) {
	// A budget where SymProp fits but CSS's full R^{N-1} output does not —
	// the qualitative crossover of paper Figs. 4/5.
	x, err := spsym.Random(spsym.RandomOptions{Order: 7, Dim: 100, NNZ: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	u := linalg.RandomNormal(100, 8, rand.New(rand.NewSource(5)))
	guard := memguard.New(16 << 20) // 16 MB
	// CSS: 100 x 8^6 = 26M doubles = 210 MB -> OOM.
	if _, err := S3TTMcCSS(x, u, Options{Guard: guard}); !errors.Is(err, memguard.ErrOutOfMemory) {
		t.Fatalf("CSS should OOM, got %v", err)
	}
	// SymProp: 100 x S_{6,8}=3003 = 300K doubles = 2.4 MB -> fits.
	if _, err := S3TTMcSymProp(x, u, Options{Guard: guard, Workers: 2}); err != nil {
		t.Fatalf("SymProp should fit in the same budget: %v", err)
	}
}

func TestEmptyTensorKernels(t *testing.T) {
	x := spsym.New(3, 4)
	u := linalg.RandomNormal(4, 2, rand.New(rand.NewSource(1)))
	yp, err := S3TTMcSymProp(x, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if yp.FrobeniusNorm() != 0 {
		t.Error("empty tensor must yield zero Yp")
	}
	res, err := S3TTMcTC(x, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.A.FrobeniusNorm() != 0 || res.CoreNormSquared() != 0 {
		t.Error("empty tensor must yield zero A and core")
	}
}

func TestExpandCompactColumnsSmall(t *testing.T) {
	// order=3, r=2: compact columns are (0,0),(0,1),(1,1); full columns
	// (0,0),(0,1),(1,0),(1,1) map to ranks 0,1,1,2.
	yp := linalg.NewMatrixFrom(1, 3, []float64{10, 20, 30})
	full := ExpandCompactColumns(yp, 3, 2)
	want := []float64{10, 20, 20, 30}
	for i, w := range want {
		if full.Data[i] != w {
			t.Fatalf("ExpandCompactColumns = %v, want %v", full.Data, want)
		}
	}
}

// TestOneCallProductsRunNoPlan: ExpandCompactColumns, the one-call twin of
// plan svd.expand, runs on the calling goroutine. With a process-wide
// collector installed and a hook armed at kernels.worker it records no
// plan and fires no hook, and it equals SVDExpand bit for bit on pools of
// 1–4 goroutines. linalg's test of the same name covers the dense
// products.
func TestOneCallProductsRunNoPlan(t *testing.T) {
	const order, r = 4, 3
	yp := linalg.RandomNormal(37, int(dense.Count(order-1, r)), rand.New(rand.NewSource(8)))
	m := obs.New()
	obs.SetGlobal(m)
	count, hits := faultinject.Counter()
	disarm := faultinject.Arm(faultinject.SiteKernelWorker, count)
	one := ExpandCompactColumns(yp, order, r)
	disarm()
	obs.SetGlobal(nil)
	if n := hits(); n != 0 {
		t.Errorf("ExpandCompactColumns fired kernels.worker %d times, want 0", n)
	}
	for _, pm := range m.Snapshot() {
		t.Errorf("ExpandCompactColumns ran plan %s", pm.Name)
	}
	for workers := 1; workers <= 4; workers++ {
		pool := exec.NewPool(workers)
		got, err := SVDExpand(yp, order, r, Options{Workers: workers, Exec: pool})
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(one.Data[k]) {
				t.Fatalf("workers=%d: SVDExpand entry %d is %v, ExpandCompactColumns' %v", workers, k, v, one.Data[k])
			}
		}
	}
}

func TestSharedPlanCacheAcrossCalls(t *testing.T) {
	x, u := randomCase(t, 4, 6, 10, 2, 123)
	var cache css.Cache
	opts := Options{PlanCache: &cache}
	if _, err := S3TTMcSymProp(x, u, opts); err != nil {
		t.Fatal(err)
	}
	n := cache.Len()
	if n == 0 {
		t.Fatal("plan cache unused")
	}
	if _, err := S3TTMcSymProp(x, u, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != n {
		t.Error("second call should reuse cached plans")
	}
}

func TestWorkspacePoolRecycles(t *testing.T) {
	x, u := randomCase(t, 4, 8, 30, 3, 321)
	var pool WorkspacePool
	opts := Options{Workers: 2, Pool: &pool}
	base, err := S3TTMcSymProp(x, u, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := S3TTMcSymProp(x, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := linalg.MaxAbsDiff(base, got); d > 1e-12 {
			t.Fatalf("pooled call %d differs by %v", i, d)
		}
	}
	if pool.Len() == 0 {
		t.Error("pool should hold recycled workspaces after calls complete")
	}
	// Mixed shapes must not cross-contaminate.
	u2 := linalg.RandomNormal(8, 5, rand.New(rand.NewSource(4)))
	if _, err := S3TTMcSymProp(x, u2, opts); err != nil {
		t.Fatal(err)
	}
	got, err := S3TTMcSymProp(x, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(base, got); d > 1e-12 {
		t.Errorf("after mixed shapes, pooled result differs by %v", d)
	}
}

// The colex evaluator and the lex walk (lexWalk) run the same lattice plan
// with different outer-product walks — colex blocks, and the recursive lex
// loop nest of Algorithm 1 — and must agree bit for bit, on all-distinct
// tensors (the widest lattices) and on padded ones (many signatures,
// repeated indices) up to order 8.
func TestIterationStrategiesAgree(t *testing.T) {
	for order := 3; order <= 8; order++ {
		distinct, err := spsym.Random(spsym.RandomOptions{
			Order: order, Dim: 12, NNZ: 15, Seed: int64(order), Values: spsym.ValueNormal, ForbidRepeats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := linalg.RandomNormal(12, 3, rand.New(rand.NewSource(int64(order)+40)))
		padded, pu := paddedCase(t, order, 11, 40, 3, int64(order)+60)
		for _, tc := range []struct {
			name string
			x    *spsym.Tensor
			u    *linalg.Matrix
		}{{"distinct", distinct, u}, {"padded", padded, pu}} {
			gen, err := S3TTMcSymProp(tc.x, tc.u, Options{})
			if err != nil {
				t.Fatal(err)
			}
			lex, err := S3TTMcSymProp(tc.x, tc.u, Options{lexWalk: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range gen.Data {
				if math.Float64bits(gen.Data[i]) != math.Float64bits(lex.Data[i]) {
					t.Fatalf("order %d %s: the lex walk gives %v at %d, the colex evaluator %v",
						order, tc.name, lex.Data[i], i, gen.Data[i])
				}
			}
			// The (expensive) brute-force oracle only up to order 6; beyond
			// that the strategy comparison above carries the check.
			// Relative tolerance: order-6 entries sum 6! permutation
			// products, so absolute magnitudes are large.
			if order <= 6 {
				scale := 1.0
				for _, v := range gen.Data {
					scale = math.Max(scale, math.Abs(v))
				}
				want := referenceTTMc(tc.x, tc.u)
				if d := linalg.MaxAbsDiff(ExpandCompactColumns(gen, order, 3), want); d > 1e-9*scale {
					t.Errorf("order %d %s: SymProp differs from reference by %v", order, tc.name, d)
				}
			}
		}
	}
}

func TestExpandCompactColumnsShapeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched shape should panic with a clear message")
		}
	}()
	ExpandCompactColumns(linalg.NewMatrix(3, 7), 3, 2) // S_{2,2}=3, not 7
}

// TestReusedOutputMatchesFresh: S3TTMcInto into a recycled destination
// gives a fresh call's bits whatever the destination held, because each
// owner-computes leaf clears its own rows before its first emission. It
// runs SymProp and CSS on the padded order-8 golden fixture (CSS at rank 2,
// where its full unfolding stays small), on an all-distinct fixture on the
// fused grid and on a tensor without non-zeros, at workers 1–4, into a
// destination filled with NaN and into one holding a non-zero pattern.
func TestReusedOutputMatchesFresh(t *testing.T) {
	padded, uPadded := paddedCase(t, 8, 16, 150, 6, 85)
	distinct, uDistinct := normalCase(t, 5, 14, 120, 4, 82, true)
	empty := spsym.New(4, 9)
	uEmpty := linalg.RandomNormal(9, 3, rand.New(rand.NewSource(86)))
	fills := []struct {
		name string
		at   func(i int) float64
	}{
		{"nan", func(int) float64 { return math.NaN() }},
		{"pattern", func(i int) float64 { return float64(i%7) - 2.5 }},
	}
	for _, c := range []struct {
		name    string
		x       *spsym.Tensor
		u       *linalg.Matrix
		compact bool
	}{
		{"symprop/order8-padded", padded, uPadded, true},
		{"css/order8-padded-r2", padded, linalg.RandomNormal(padded.Dim, 2, rand.New(rand.NewSource(87))), false},
		{"symprop/order5-distinct", distinct, uDistinct, true},
		{"css/order5-distinct", distinct, uDistinct, false},
		{"symprop/nnz0", empty, uEmpty, true},
		{"css/nnz0", empty, uEmpty, false},
	} {
		for workers := 1; workers <= 4; workers++ {
			opts := sharedOptions(t, workers)
			fresh, err := S3TTMcInto(nil, c.x, c.u, opts, c.compact)
			if err != nil {
				t.Fatal(err)
			}
			dst := linalg.NewMatrix(fresh.Rows, fresh.Cols)
			for _, fill := range fills {
				for i := range dst.Data {
					dst.Data[i] = fill.at(i)
				}
				y, err := S3TTMcInto(dst, c.x, c.u, opts, c.compact)
				if err != nil {
					t.Fatal(err)
				}
				if y != dst {
					t.Fatalf("%s/workers=%d/%s: the output is not the destination", c.name, workers, fill.name)
				}
				for i, v := range y.Data {
					if math.Float64bits(v) != math.Float64bits(fresh.Data[i]) {
						t.Fatalf("%s/workers=%d/%s: entry %d is %v, a fresh call's is %v",
							c.name, workers, fill.name, i, v, fresh.Data[i])
					}
				}
			}
		}
	}
}

// TestS3TTMcIntoShapeCheck: a destination of another shape is a caller's
// bug and panics before the kernel writes anything.
func TestS3TTMcIntoShapeCheck(t *testing.T) {
	x, u := randomCase(t, 3, 6, 20, 2, 88)
	for _, c := range []struct {
		name    string
		dst     *linalg.Matrix
		compact bool
	}{
		{"rows", linalg.NewMatrix(5, 3), true},         // I = 6
		{"compact-cols", linalg.NewMatrix(6, 4), true}, // S_{2,2} = 3
		{"full-cols", linalg.NewMatrix(6, 3), false},   // R^2 = 4
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("mismatched destination should panic with a clear message")
				}
			}()
			S3TTMcInto(c.dst, x, u, Options{}, c.compact)
		})
	}
}
