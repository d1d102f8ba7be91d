package linalg

import "github.com/symprop/symprop/internal/exec"

// This file implements the GEMM variants the Tucker drivers use. Each
// product's row walk exists once, as the unexported *Range function, built
// on the register-blocked micro-kernels in microkernel.go: Mul and MulTN
// stream K in gemmKC panels through axpy8 (eight source rows folded into
// one destination pass, stepping down to axpy4 and scalar on the K tail),
// while the dot-shaped variants MulNT and MulNTWeighted walk 4x2 output
// tiles of running row-dot sums. Row-major layout keeps every inner loop
// on contiguous memory; tails smaller than a tile fall back to the scalar
// helpers, which preserve the naive loops' semantics exactly. A one-call
// product (Mul, MulTN, MulNT, MulNTWeighted) walks all its rows on the
// calling goroutine; a Run* product runs the same walk as an
// execution-engine plan under the caller's exec.Config (parallel.go).
// Every output row's sum is independent of the rows around it, so no split
// of the rows across workers moves a bit, and each one-call product equals
// its Run* twin.

// Mul returns C = A·B, on the calling goroutine.
func Mul(a, b *Matrix) *Matrix {
	mustShape(a.Cols == b.Rows, "linalg: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	c := NewMatrix(a.Rows, b.Cols)
	mulRange(c, a, b, 0, c.Rows)
	return c
}

// mulRange computes rows [lo, hi) of C = A·B into c. K panels are
// outermost so the panel of B rows is reused across every row of the
// block.
func mulRange(c, a, b *Matrix, lo, hi int) {
	for k0 := 0; k0 < a.Cols; k0 += gemmKC {
		k1 := min(k0+gemmKC, a.Cols)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			crow := c.Row(i)
			k := k0
			for ; k+7 < k1; k += 8 {
				av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				av4, av5, av6, av7 := arow[k+4], arow[k+5], arow[k+6], arow[k+7]
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 &&
					av4 == 0 && av5 == 0 && av6 == 0 && av7 == 0 {
					continue
				}
				axpy8(crow, av0, av1, av2, av3, av4, av5, av6, av7,
					b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3),
					b.Row(k+4), b.Row(k+5), b.Row(k+6), b.Row(k+7))
			}
			for ; k+3 < k1; k += 4 {
				av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
					continue
				}
				axpy4(crow, av0, av1, av2, av3, b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
			}
			for ; k < k1; k++ {
				axpy1(crow, arow[k], b.Row(k))
			}
		}
	}
}

// MulTN returns C = Aᵀ·B (C is a.Cols x b.Cols), on the calling goroutine.
func MulTN(a, b *Matrix) *Matrix {
	c, _ := mulTN(serialRows, a, b) // serialRows returns no error
	return c
}

// RunMulTN is MulTN run as plan name under cfg (RunRows). Splitting the
// shared K dimension across workers with private accumulators would race
// (or force a reduction), so it parallelizes over output rows instead:
// each worker owns a contiguous band of C's rows (columns of A) and
// streams through the rows of A and B once per K panel of each 8-row block
// of its band.
func RunMulTN(cfg exec.Config, name string, a, b *Matrix) (*Matrix, error) {
	return mulTN(planRows(cfg, name), a, b)
}

func mulTN(run rowsFunc, a, b *Matrix) (*Matrix, error) {
	mustShape(a.Rows == b.Rows, "linalg: MulTN shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	c := NewMatrix(a.Cols, b.Cols)
	if err := run(c.Rows, func(lo, hi int) { mulTNRange(c, a, b, lo, hi) }); err != nil {
		return nil, err
	}
	return c, nil
}

// mulTNRange computes rows [lo, hi) of C = Aᵀ·B into c. Each output row is
// accumulated with the same K-panel order whatever the range, so the rows
// may be split freely without perturbing a single output bit.
func mulTNRange(c, a, b *Matrix, lo, hi int) {
	for k0 := 0; k0 < a.Rows; k0 += gemmKC {
		k1 := min(k0+gemmKC, a.Rows)
		k := k0
		for ; k+7 < k1; k += 8 {
			ar0, ar1, ar2, ar3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
			ar4, ar5, ar6, ar7 := a.Row(k+4), a.Row(k+5), a.Row(k+6), a.Row(k+7)
			br0, br1, br2, br3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			br4, br5, br6, br7 := b.Row(k+4), b.Row(k+5), b.Row(k+6), b.Row(k+7)
			for i := lo; i < hi; i++ {
				av0, av1, av2, av3 := ar0[i], ar1[i], ar2[i], ar3[i]
				av4, av5, av6, av7 := ar4[i], ar5[i], ar6[i], ar7[i]
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 &&
					av4 == 0 && av5 == 0 && av6 == 0 && av7 == 0 {
					continue
				}
				axpy8(c.Row(i), av0, av1, av2, av3, av4, av5, av6, av7,
					br0, br1, br2, br3, br4, br5, br6, br7)
			}
		}
		for ; k+3 < k1; k += 4 {
			ar0, ar1, ar2, ar3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
			br0, br1, br2, br3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			for i := lo; i < hi; i++ {
				av0, av1, av2, av3 := ar0[i], ar1[i], ar2[i], ar3[i]
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
					continue
				}
				axpy4(c.Row(i), av0, av1, av2, av3, br0, br1, br2, br3)
			}
		}
		for ; k < k1; k++ {
			arow := a.Row(k)
			brow := b.Row(k)
			for i := lo; i < hi; i++ {
				axpy1(c.Row(i), arow[i], brow)
			}
		}
	}
}

// MulNT returns C = A·Bᵀ (C is a.Rows x b.Rows), on the calling
// goroutine. Both operands stream row-contiguously; output is computed in
// 4x2 tiles of row-dot products, then a scalar column tail and scalar
// rows, so each loaded row element of B serves four dots and every entry
// is one running sum over ascending k.
//
// Called as MulNT(a, a) it is the Gram A·Aᵀ, and only the tiles that start
// at or right of each row tile's first row are computed; the strict upper
// triangle is then mirrored. Each entry is still one running sum over
// ascending k through the same kernels, and IEEE products commute, so the
// mirrored c[j][i] is bitwise the c[i][j] the full walk would produce.
func MulNT(a, b *Matrix) *Matrix {
	c, _ := mulNT(serialRows, a, b) // serialRows returns no error
	return c
}

// RunMulNT is MulNT run as plan name under cfg. Its workers claim
// rowBlock-row tiles (runTiles): a Gram row i costs n−i dots, so two equal
// contiguous bands would hand one worker three quarters of the triangle.
// The mirror runs after the join.
func RunMulNT(cfg exec.Config, name string, a, b *Matrix) (*Matrix, error) {
	return mulNT(func(n int, rows func(lo, hi int)) error { return runTiles(cfg, name, n, rows) }, a, b)
}

func mulNT(run rowsFunc, a, b *Matrix) (*Matrix, error) {
	mustShape(a.Cols == b.Cols, "linalg: MulNT shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	c := NewMatrix(a.Rows, b.Rows)
	gram := a == b
	if err := run(a.Rows, func(lo, hi int) { mulNTRange(c, a, b, gram, lo, hi) }); err != nil {
		return nil, err
	}
	if gram {
		for i := 0; i < c.Rows; i++ {
			for j := i + 1; j < c.Cols; j++ {
				c.Data[j*c.Cols+i] = c.Data[i*c.Cols+j]
			}
		}
	}
	return c, nil
}

// mulNTRange computes rows [lo, hi) of C = A·Bᵀ into c; with gram set it
// computes only the tiles at or right of each row tile's first row.
func mulNTRange(c, a, b *Matrix, gram bool, lo, hi int) {
	// firstCol is where the j walk of the row tile starting at row i begins.
	firstCol := func(i int) int {
		if gram {
			return i
		}
		return 0
	}
	i := lo
	for ; i+3 < hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		j := firstCol(i)
		for ; j+1 < b.Rows; j += 2 {
			var acc [8]float64
			dot4x2(a0, a1, a2, a3, b.Row(j), b.Row(j+1), &acc)
			c0[j], c0[j+1], c1[j], c1[j+1] = acc[0], acc[1], acc[2], acc[3]
			c2[j], c2[j+1], c3[j], c3[j+1] = acc[4], acc[5], acc[6], acc[7]
		}
		if j < b.Rows {
			bj := b.Row(j)
			c0[j], c1[j], c2[j], c3[j] = dot(a0, bj), dot(a1, bj), dot(a2, bj), dot(a3, bj)
		}
	}
	for ; i < hi; i++ {
		ai, ci := a.Row(i), c.Row(i)
		for j := firstCol(i); j < b.Rows; j++ {
			ci[j] = dot(ai, b.Row(j))
		}
	}
}

// MulNTWeighted returns C = A·diag(w)·Bᵀ, on the calling goroutine: the
// workhorse of paper Property 3 (A = Y_p(1)·diag(p)·C_p(1)ᵀ, HOQRI's
// times-core step). HOOI does not use it: its Gram is MulNT over the
// expanded full unfolding. len(w) must equal a.Cols == b.Cols.
func MulNTWeighted(a, b *Matrix, w []float64) *Matrix {
	c, _ := mulNTWeighted(serialRows, a, b, w) // serialRows returns no error
	return c
}

// RunMulNTWeighted is MulNTWeighted run as plan name under cfg (RunRows).
func RunMulNTWeighted(cfg exec.Config, name string, a, b *Matrix, w []float64) (*Matrix, error) {
	return mulNTWeighted(planRows(cfg, name), a, b, w)
}

func mulNTWeighted(run rowsFunc, a, b *Matrix, w []float64) (*Matrix, error) {
	mustShape(a.Cols == b.Cols && len(w) == a.Cols,
		"linalg: MulNTWeighted shape mismatch %dx%d, %dx%d, |w|=%d", a.Rows, a.Cols, b.Rows, b.Cols, len(w))
	c := NewMatrix(a.Rows, b.Rows)
	if err := run(c.Rows, func(lo, hi int) { mulNTWeightedRange(c, a, b, w, lo, hi) }); err != nil {
		return nil, err
	}
	return c, nil
}

// mulNTWeightedRange computes rows [lo, hi) of C = A·diag(w)·Bᵀ into c.
// Like mulTNRange, per-row results are independent of the range (the
// 4-row tiling restarts at lo, and each dot uses the same per-k
// association as the scalar reference), so re-banding is bitwise-safe.
func mulNTWeightedRange(c, a, b *Matrix, w []float64, lo, hi int) {
	i := lo
	for ; i+3 < hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		j := 0
		for ; j+1 < b.Rows; j += 2 {
			var acc [8]float64
			dotW4x2(a0, a1, a2, a3, w, b.Row(j), b.Row(j+1), &acc)
			c0[j], c0[j+1], c1[j], c1[j+1] = acc[0], acc[1], acc[2], acc[3]
			c2[j], c2[j+1], c3[j], c3[j+1] = acc[4], acc[5], acc[6], acc[7]
		}
		if j < b.Rows {
			bj := b.Row(j)
			c0[j], c1[j], c2[j], c3[j] = dotW(a0, w, bj), dotW(a1, w, bj), dotW(a2, w, bj), dotW(a3, w, bj)
		}
	}
	for ; i < hi; i++ {
		ai, ci := a.Row(i), c.Row(i)
		for j := 0; j < b.Rows; j++ {
			ci[j] = dotW(ai, w, b.Row(j))
		}
	}
}
