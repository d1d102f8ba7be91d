package linalg

// Register-blocked micro-kernels shared by the GEMM variants in gemm.go.
//
// Two shapes cover all four entry points:
//
//   - axpy8 / axpy4: one destination row accumulates eight (or four)
//     scaled source rows in a single pass. Compared with the naive ikj
//     loop this divides the read/write traffic on the C row (the only
//     operand that is both read and written) by the fold width and exposes
//     independent multiply-add chains per element. Used by Mul and MulTN,
//     whose inner loops are row updates; the K tail steps down
//     8 → 4 → scalar.
//   - dot4x2 / dotW4x2: a 4x2 block of row-dot products held in eight
//     running sums, so every loaded element of B serves four dots and
//     every loaded element of A two. Each sum keeps the scalar-dot
//     association, so the tile shape never changes an output bit. Used by
//     MulNT and MulNTWeighted, whose inner loops are row dots.
//
// Tails in every dimension (fewer rows, columns, or k steps than a tile)
// fall back to the scalar helpers at the bottom of the file, which are also
// the reference semantics the golden tests compare against.

// gemmKC is the K-dimension panel width of Mul and MulTN: they sweep B in
// panels of at most gemmKC rows so the panel (gemmKC x Cols values) is
// reused across every output row a worker owns instead of being streamed
// once per row. For a rank-16 factor B that panel is 64 KiB; for a wide B
// such as HOQRI's Y_p in MulTN(U, Y_p) it is gemmKC rows of Y_p, far past
// any cache, and the walk is bound by streaming it.
const gemmKC = 512

// axpy4 computes dst[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j].
// b0..b3 must be at least len(dst) long.
func axpy4(dst []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		d0 := dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		d1 := dst[j+1] + a0*b0[j+1] + a1*b1[j+1] + a2*b2[j+1] + a3*b3[j+1]
		d2 := dst[j+2] + a0*b0[j+2] + a1*b1[j+2] + a2*b2[j+2] + a3*b3[j+2]
		d3 := dst[j+3] + a0*b0[j+3] + a1*b1[j+3] + a2*b2[j+3] + a3*b3[j+3]
		dst[j], dst[j+1], dst[j+2], dst[j+3] = d0, d1, d2, d3
	}
	for ; j < n; j++ {
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy8 computes dst[j] += a0·b0[j] + … + a7·b7[j]: the 8-wide K step of
// Mul and MulTN. Folding eight source rows per destination pass halves the
// C-row read/write traffic of axpy4 again and feeds two independent 4-term
// chains per element; the K tail below eight falls to axpy4/axpy1.
func axpy8(dst []float64, a0, a1, a2, a3, a4, a5, a6, a7 float64,
	b0, b1, b2, b3, b4, b5, b6, b7 []float64) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	b4, b5, b6, b7 = b4[:n], b5[:n], b6[:n], b7[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		d0 := dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
		d1 := dst[j+1] + a0*b0[j+1] + a1*b1[j+1] + a2*b2[j+1] + a3*b3[j+1] + a4*b4[j+1] + a5*b5[j+1] + a6*b6[j+1] + a7*b7[j+1]
		d2 := dst[j+2] + a0*b0[j+2] + a1*b1[j+2] + a2*b2[j+2] + a3*b3[j+2] + a4*b4[j+2] + a5*b5[j+2] + a6*b6[j+2] + a7*b7[j+2]
		d3 := dst[j+3] + a0*b0[j+3] + a1*b1[j+3] + a2*b2[j+3] + a3*b3[j+3] + a4*b4[j+3] + a5*b5[j+3] + a6*b6[j+3] + a7*b7[j+3]
		dst[j], dst[j+1], dst[j+2], dst[j+3] = d0, d1, d2, d3
	}
	for ; j < n; j++ {
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
	}
}

// axpy1 computes dst[j] += a·b[j]; the scalar K tail of axpy4 callers.
func axpy1(dst []float64, a float64, b []float64) {
	if a == 0 {
		return
	}
	for j, bv := range b[:len(dst)] {
		dst[j] += a * bv
	}
}

// dot4x2 computes the eight dot products of rows a0..a3 against rows b0
// and b1 into acc (row-major: acc[ii*2+jj] = Σ_k a_ii[k]·b_jj[k], one
// running sum from +0 over ascending k). All six slices must share the
// length of a0.
//
// Eight sums plus four A and two B values are fourteen live floats, which
// fit the fifteen SSE registers Go's amd64 ABI allocates (X15 is its fixed
// zero register), so no sum leaves a register inside the k loop; a wider
// tile spills sums to the stack on every k step. Each product is converted
// explicitly so that no target fuses it with the add.
func dot4x2(a0, a1, a2, a3, b0, b1 []float64, acc *[8]float64) {
	n := len(a0)
	a1, a2, a3, b0, b1 = a1[:n], a2[:n], a3[:n], b0[:n], b1[:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	for k := range n {
		av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
		bv0, bv1 := b0[k], b1[k]
		s00 += float64(av0 * bv0)
		s01 += float64(av0 * bv1)
		s10 += float64(av1 * bv0)
		s11 += float64(av1 * bv1)
		s20 += float64(av2 * bv0)
		s21 += float64(av2 * bv1)
		s30 += float64(av3 * bv0)
		s31 += float64(av3 * bv1)
	}
	acc[0], acc[1], acc[2], acc[3] = s00, s01, s10, s11
	acc[4], acc[5], acc[6], acc[7] = s20, s21, s30, s31
}

// dotW4x2 is dot4x2 with a per-k diagonal weight: acc[ii*2+jj] =
// Σ_k a_ii[k]·w[k]·b_jj[k]. The weight is folded into the A side once, so
// the inner step costs four extra multiplies rather than eight, in the
// association (a·w)·b of dotW.
func dotW4x2(a0, a1, a2, a3, w, b0, b1 []float64, acc *[8]float64) {
	n := len(a0)
	a1, a2, a3, w, b0, b1 = a1[:n], a2[:n], a3[:n], w[:n], b0[:n], b1[:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	for k := range n {
		wv := w[k]
		av0, av1, av2, av3 := a0[k]*wv, a1[k]*wv, a2[k]*wv, a3[k]*wv
		bv0, bv1 := b0[k], b1[k]
		s00 += float64(av0 * bv0)
		s01 += float64(av0 * bv1)
		s10 += float64(av1 * bv0)
		s11 += float64(av1 * bv1)
		s20 += float64(av2 * bv0)
		s21 += float64(av2 * bv1)
		s30 += float64(av3 * bv0)
		s31 += float64(av3 * bv1)
	}
	acc[0], acc[1], acc[2], acc[3] = s00, s01, s10, s11
	acc[4], acc[5], acc[6], acc[7] = s20, s21, s30, s31
}

// dot is the scalar row-dot tail: Σ_k a[k]·b[k], unfused like dot4x2.
func dot(a, b []float64) float64 {
	var s float64
	for k, av := range a {
		s += float64(av * b[k])
	}
	return s
}

// dotW is the scalar weighted row-dot tail: Σ_k a[k]·w[k]·b[k], in
// dotW4x2's association and unfused like it.
func dotW(a, w, b []float64) float64 {
	var s float64
	for k, av := range a {
		s += float64(av * w[k] * b[k])
	}
	return s
}
