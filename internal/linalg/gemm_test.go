package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/obs"
)

// Golden references: the pre-blocking one-level loops, so the
// register-blocked kernels in gemm.go are pinned to the exact semantics they
// replaced. The row-dot references convert each product explicitly, as the
// kernels do, so that no target fuses it with the add and the bitwise
// comparison holds everywhere. naiveMul lives in matrix_test.go.

func naiveMulTN(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := 0; i < c.Rows; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c.Row(i)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

func naiveMulNT(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			crow[j] = s
		}
	}
	return c
}

func naiveMulNTWeighted(a, b *Matrix, w []float64) *Matrix {
	c := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += float64(av * w[k] * brow[k])
			}
			crow[j] = s
		}
	}
	return c
}

// gemmGoldenShapes exercises every tail the blocked kernels have: dimensions
// below one tile, exactly on tile boundaries, one past them, empty operands,
// row counts of every residue mod 4 with odd column counts (so each 4x2
// tile's row and column tails run), and K larger than the gemmKC panel
// width. The last two shapes run thousands of k steps per dot, the second
// at hoqri-walmart's rank 10.
var gemmGoldenShapes = []struct{ m, k, n int }{
	{0, 3, 3}, {3, 0, 3}, {3, 3, 0}, {0, 0, 0},
	{1, 1, 1}, {2, 3, 2}, {3, 5, 7},
	{4, 4, 4}, {5, 4, 3}, {4, 5, 4}, {4, 4, 5},
	{6, 5, 7}, {7, 9, 5}, {10, 3, 9}, {11, 7, 3},
	{8, 8, 8}, {9, 7, 6}, {13, 17, 11},
	{6, gemmKC, 5}, {3, gemmKC + 3, 4}, {5, 2*gemmKC + 1, 6},
	{7, 4097, 5}, {10, 5003, 10},
}

// TestBlockedGEMMGolden checks Mul and MulTN against the naive loops within
// rounding, and MulNT and MulNTWeighted bit for bit: both sides are one
// running sum per entry over ascending k, whatever the tile or the worker
// count.
func TestBlockedGEMMGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type ntCase struct {
		a, b *Matrix
		w    []float64
	}
	var nts []ntCase
	for _, sh := range gemmGoldenShapes {
		a := RandomNormal(sh.m, sh.k, rng)
		b := RandomNormal(sh.k, sh.n, rng)
		if d := MaxAbsDiff(Mul(a, b), naiveMul(a, b)); d > 1e-10 {
			t.Errorf("Mul %dx%d·%dx%d differs from naive by %v", sh.m, sh.k, sh.k, sh.n, d)
		}

		at := RandomNormal(sh.k, sh.m, rng)
		if d := MaxAbsDiff(MulTN(at, b), naiveMulTN(at, b)); d > 1e-10 {
			t.Errorf("MulTN %dx%dᵀ·%dx%d differs from naive by %v", sh.k, sh.m, sh.k, sh.n, d)
		}

		bt := RandomNormal(sh.n, sh.k, rng)
		w := make([]float64, sh.k)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		nts = append(nts, ntCase{a, bt, w})
	}
	// The aliased MulNT(a, a) computes the upper triangle and mirrors it.
	// It must equal the full walk over a distinct copy bit for bit, and so
	// be exactly symmetric.
	var grams []*Matrix
	for _, c := range nts {
		grams = append(grams, c.a)
	}
	for _, rows := range []int{0, 1, 7, 9, 245} {
		grams = append(grams, RandomNormal(rows, 33, rng))
	}

	sameBits := func(procs int, what string, got, want *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("procs=%d: %s %dx%d entry %d = %v, want %v", procs, what, got.Rows, got.Cols, i, v, want.Data[i])
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, c := range nts {
			sameBits(procs, "MulNT", MulNT(c.a, c.b), naiveMulNT(c.a, c.b))
			sameBits(procs, "MulNTWeighted", MulNTWeighted(c.a, c.b, c.w), naiveMulNTWeighted(c.a, c.b, c.w))
		}
		for _, a := range grams {
			g := MulNT(a, a)
			sameBits(procs, "MulNT(a, a)", g, MulNT(a, a.Clone()))
			for i := 0; i < g.Rows; i++ {
				for j := i + 1; j < g.Cols; j++ {
					if math.Float64bits(g.At(i, j)) != math.Float64bits(g.At(j, i)) {
						t.Fatalf("procs=%d: MulNT(a, a) %dx%d not symmetric at (%d, %d)", procs, a.Rows, a.Cols, i, j)
					}
				}
			}
		}
	}
}

func TestBlockedGEMMZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := RandomNormal(9, 13, rng)
	b := RandomNormal(6, 13, rng)
	w := make([]float64, 13)
	c := MulNTWeighted(a, b, w)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("MulNTWeighted with all-zero weights must be exactly zero")
		}
	}
}

// The zero-skip fast path in Mul/MulTN must not change results when entire
// 4-wide K groups are zero.
func TestBlockedGEMMSparseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := RandomNormal(7, 24, rng)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for k := 4; k < 12; k++ {
			row[k] = 0 // a whole tile of zeros plus part of the next
		}
	}
	b := RandomNormal(24, 5, rng)
	if d := MaxAbsDiff(Mul(a, b), naiveMul(a, b)); d > 1e-12 {
		t.Errorf("Mul with zero runs differs from naive by %v", d)
	}
	c := Mul(a, b)
	if d := MaxAbsDiff(MulTN(a, c), naiveMulTN(a, c)); d > 1e-12 {
		t.Errorf("MulTN with zero runs differs from naive by %v", d)
	}
}

func TestMicrokernelTails(t *testing.T) {
	// axpy4 with destination shorter than one 4-wide j step.
	dst := []float64{1, 2, 3}
	axpy4(dst, 1, 2, 3, 4,
		[]float64{1, 0, 0}, []float64{0, 1, 0}, []float64{0, 0, 1}, []float64{1, 1, 1})
	want := []float64{1 + 1 + 4, 2 + 2 + 4, 3 + 3 + 4}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("axpy4 tail: dst[%d]=%v want %v", i, dst[i], want[i])
		}
	}
	// axpy1 skips work entirely for a zero coefficient.
	axpy1(dst, 0, []float64{100, 100, 100})
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatal("axpy1 with zero coefficient modified dst")
		}
	}
	if d := dot([]float64{1, 2}, []float64{3, 4}); d != 11 {
		t.Fatalf("dot = %v, want 11", d)
	}
	if d := dotW([]float64{1, 2}, []float64{2, 0.5}, []float64{3, 4}); d != 10 {
		t.Fatalf("dotW = %v, want 10", d)
	}
}

func TestWideMicrokernels(t *testing.T) {
	// axpy8 against eight sequential axpy1 folds on a j tail (len 3) and a
	// full 4-wide step (len 4): same operands, the widened fold must only
	// reassociate, never drop or duplicate a term.
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{3, 4, 7} {
		dst := make([]float64, n)
		ref := make([]float64, n)
		for i := range dst {
			v := rng.NormFloat64()
			dst[i], ref[i] = v, v
		}
		var as [8]float64
		var bs [8][]float64
		for r := range bs {
			as[r] = rng.NormFloat64()
			bs[r] = make([]float64, n)
			for j := range bs[r] {
				bs[r][j] = rng.NormFloat64()
			}
		}
		axpy8(dst, as[0], as[1], as[2], as[3], as[4], as[5], as[6], as[7],
			bs[0], bs[1], bs[2], bs[3], bs[4], bs[5], bs[6], bs[7])
		for j := range ref {
			var sum float64
			for r := range bs {
				sum += as[r] * bs[r][j]
			}
			ref[j] += sum
		}
		for j := range dst {
			if diff := math.Abs(dst[j] - ref[j]); diff > 1e-12 {
				t.Fatalf("axpy8 n=%d: dst[%d]=%v want %v", n, j, dst[j], ref[j])
			}
		}
	}
	// dot4x2 and dotW4x2 must agree bitwise with the scalar helpers: each
	// sum uses the same per-k association, so no tolerance is needed. acc
	// is output only, so the NaNs it starts with must not reach a sum.
	n := 13
	randRow := func() []float64 {
		r := make([]float64, n)
		for k := range r {
			r[k] = rng.NormFloat64()
		}
		return r
	}
	var a [4][]float64
	for r := range a {
		a[r] = randRow()
	}
	bm := [2][]float64{randRow(), randRow()}
	w := randRow()
	var acc, accW [8]float64
	for e := range acc {
		acc[e], accW[e] = math.NaN(), math.NaN()
	}
	dot4x2(a[0], a[1], a[2], a[3], bm[0], bm[1], &acc)
	dotW4x2(a[0], a[1], a[2], a[3], w, bm[0], bm[1], &accW)
	for ii := 0; ii < 4; ii++ {
		for jj := 0; jj < 2; jj++ {
			e := ii*2 + jj
			if want := dot(a[ii], bm[jj]); acc[e] != want {
				t.Fatalf("dot4x2 acc[%d][%d]=%v, scalar dot %v", ii, jj, acc[e], want)
			}
			if want := dotW(a[ii], w, bm[jj]); accW[e] != want {
				t.Fatalf("dotW4x2 acc[%d][%d]=%v, scalar dotW %v", ii, jj, accW[e], want)
			}
		}
	}
}

// TestRangeKernelsBandSplit: mulTNRange, mulNTWeightedRange and mulNTRange
// give every output row the same bits whatever band it falls in, so the
// plans may split the rows freely. Each split, 16 bands over MulTN's 11 rows
// included, must equal the one-band call bit for bit. The Gram, on both
// sides (HOOI's SVD step takes the aliased MulNT triangle, mirrored after
// the join, or MulTN bands), must give the one-band full walk's bits on
// borrowed pools of 1, 2, 4 and 8 goroutines.
func TestRangeKernelsBandSplit(t *testing.T) {
	a := NewMatrix(37, 11)
	for i := range a.Data {
		a.Data[i] = math.Cos(float64(i) * 0.31)
	}
	b := NewMatrix(37, 5)
	for i := range b.Data {
		b.Data[i] = math.Sin(float64(i)*0.17) - 0.2
	}
	c := NewMatrix(23, 11)
	for i := range c.Data {
		c.Data[i] = math.Sin(float64(i) * 0.13)
	}
	w := make([]float64, 11)
	for i := range w {
		w[i] = float64(i%3) + 0.25
	}
	sameBits := func(what string, got, want *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: entry %d = %v, want %v", what, i, v, want.Data[i])
			}
		}
	}
	kernels := []struct {
		name string
		out  func() *Matrix
		rows func(out *Matrix, lo, hi int)
	}{
		{"mulTNRange", func() *Matrix { return NewMatrix(a.Cols, b.Cols) },
			func(out *Matrix, lo, hi int) { mulTNRange(out, a, b, lo, hi) }},
		{"mulNTWeightedRange", func() *Matrix { return NewMatrix(a.Rows, c.Rows) },
			func(out *Matrix, lo, hi int) { mulNTWeightedRange(out, a, c, w, lo, hi) }},
		{"mulNTRange", func() *Matrix { return NewMatrix(a.Rows, c.Rows) },
			func(out *Matrix, lo, hi int) { mulNTRange(out, a, c, false, lo, hi) }},
	}
	for _, k := range kernels {
		want := k.out()
		k.rows(want, 0, want.Rows)
		for _, bands := range []int{1, 2, 3, 8, 16} {
			got := k.out()
			for s := 0; s < bands; s++ {
				k.rows(got, s*got.Rows/bands, (s+1)*got.Rows/bands)
			}
			sameBits(fmt.Sprintf("%s, %d bands", k.name, bands), got, want)
		}
	}

	y := NewMatrix(70, 37) // 9 Gram tiles: every worker of 8 claims one
	for i := range y.Data {
		y.Data[i] = math.Sin(float64(i)*0.37) - 0.1
	}
	rowGram, colGram := NewMatrix(y.Rows, y.Rows), NewMatrix(y.Cols, y.Cols)
	mulNTRange(rowGram, y, y, false, 0, y.Rows)
	mulTNRange(colGram, y, y, 0, y.Cols)
	for _, n := range []int{1, 2, 4, 8} {
		pool := exec.NewPool(n)
		defer pool.Close()
		cfg := exec.Config{Workers: n, Pool: pool}
		got, err := RunMulNT(cfg, "test.gram", y, y)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(fmt.Sprintf("row-side Gram on %d goroutines", n), got, rowGram)
		if got, err = RunMulTN(cfg, "test.gram", y, y); err != nil {
			t.Fatal(err)
		}
		sameBits(fmt.Sprintf("column-side Gram on %d goroutines", n), got, colGram)
	}
}

// TestOneCallProductsRunNoPlan: the one-call products Mul, MulTN, MulNT
// (general and Gram) and MulNTWeighted run on the calling goroutine. With
// a process-wide collector installed and a hook armed at kernels.worker
// they record no plan and fire no hook, and each equals its Run* twin (for
// Mul, its walk under RunRows) bit for bit on pools of 1–4 goroutines.
func TestOneCallProductsRunNoPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := RandomNormal(37, 19, rng), RandomNormal(19, 11, rng)
	at, c := RandomNormal(19, 37, rng), RandomNormal(23, 19, rng)
	w := make([]float64, 19)
	for i := range w {
		w[i] = rng.Float64() + 0.5
	}
	products := []struct {
		name string
		one  func() *Matrix
		twin func(exec.Config) (*Matrix, error)
	}{
		{"Mul", func() *Matrix { return Mul(a, b) }, func(cfg exec.Config) (*Matrix, error) {
			out := NewMatrix(a.Rows, b.Cols)
			return out, RunRows(cfg, "test.mul", out.Rows, func(lo, hi int) { mulRange(out, a, b, lo, hi) })
		}},
		{"MulTN", func() *Matrix { return MulTN(at, b) },
			func(cfg exec.Config) (*Matrix, error) { return RunMulTN(cfg, "test.multn", at, b) }},
		{"MulNT", func() *Matrix { return MulNT(a, c) },
			func(cfg exec.Config) (*Matrix, error) { return RunMulNT(cfg, "test.mulnt", a, c) }},
		{"MulNT Gram", func() *Matrix { return MulNT(a, a) },
			func(cfg exec.Config) (*Matrix, error) { return RunMulNT(cfg, "test.gram", a, a) }},
		{"MulNTWeighted", func() *Matrix { return MulNTWeighted(a, c, w) },
			func(cfg exec.Config) (*Matrix, error) { return RunMulNTWeighted(cfg, "test.mulntw", a, c, w) }},
	}

	m := obs.New()
	obs.SetGlobal(m)
	count, hits := faultinject.Counter()
	disarm := faultinject.Arm(faultinject.SiteKernelWorker, count)
	ones := make([]*Matrix, len(products))
	for i, p := range products {
		ones[i] = p.one()
	}
	disarm()
	obs.SetGlobal(nil)
	if n := hits(); n != 0 {
		t.Errorf("the one-call products fired kernels.worker %d times, want 0", n)
	}
	for _, pm := range m.Snapshot() {
		t.Errorf("a one-call product ran plan %s", pm.Name)
	}

	for workers := 1; workers <= 4; workers++ {
		pool := exec.NewPool(workers)
		for i, p := range products {
			got, err := p.twin(exec.Config{Workers: workers, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(ones[i].Data[k]) {
					t.Fatalf("%s: the one-call product's entry %d is %v, its twin's at %d workers %v",
						p.name, k, ones[i].Data[k], workers, v)
				}
			}
		}
		pool.Close()
	}
}
