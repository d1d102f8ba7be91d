package linalg

// Register-blocked micro-kernels shared by the GEMM variants in gemm.go.
//
// Two shapes cover all four entry points, each in a wide (8-row) and a
// narrow (4-row) variant:
//
//   - axpy8 / axpy4: one destination row accumulates eight (or four)
//     scaled source rows in a single pass. Compared with the naive ikj
//     loop this divides the read/write traffic on the C row (the only
//     operand that is both read and written) by the fold width and exposes
//     independent multiply-add chains per element. Used by Mul and MulTN,
//     whose inner loops are row updates; the K tail steps down
//     8 → 4 → scalar.
//   - dot8x4 / dot4x4 / dotW4x4: an 8x4 (or 4x4) block of row-dot products
//     held in scalar accumulators, so every loaded element of B is used
//     eight (or four) times before leaving registers. Each accumulator
//     keeps the scalar-dot association, so the tile width never changes an
//     output bit. Used by MulNT and MulNTWeighted, whose inner loops are
//     row dots.
//
// Tails in every dimension (fewer rows, columns, or k steps than a tile)
// fall back to the narrower tile and finally the scalar helpers at the
// bottom of the file, which are also the reference semantics the golden
// tests compare against.

// gemmKC is the K-dimension panel width: Mul and MulTN sweep B in panels of
// at most gemmKC rows so the panel (gemmKC x Cols values) is reused across
// every output row a worker owns instead of being streamed once per row.
// 512 rows of a rank-16 factor are 64 KiB — comfortably L2-resident.
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

// dot4x4 accumulates the sixteen dot products of rows a0..a3 against rows
// b0..b3 into acc (row-major: acc[ii*4+jj] += Σ_k a_ii[k]·b_jj[k]). All
// eight slices must share the length of a0.
func dot4x4(a0, a1, a2, a3, b0, b1, b2, b3 []float64, acc *[16]float64) {
	n := len(a0)
	a1, a2, a3 = a1[:n], a2[:n], a3[:n]
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	for k := 0; k < n; k++ {
		av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
		bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
		s00 += av0 * bv0
		s01 += av0 * bv1
		s02 += av0 * bv2
		s03 += av0 * bv3
		s10 += av1 * bv0
		s11 += av1 * bv1
		s12 += av1 * bv2
		s13 += av1 * bv3
		s20 += av2 * bv0
		s21 += av2 * bv1
		s22 += av2 * bv2
		s23 += av2 * bv3
		s30 += av3 * bv0
		s31 += av3 * bv1
		s32 += av3 * bv2
		s33 += av3 * bv3
	}
	acc[0] += s00
	acc[1] += s01
	acc[2] += s02
	acc[3] += s03
	acc[4] += s10
	acc[5] += s11
	acc[6] += s12
	acc[7] += s13
	acc[8] += s20
	acc[9] += s21
	acc[10] += s22
	acc[11] += s23
	acc[12] += s30
	acc[13] += s31
	acc[14] += s32
	acc[15] += s33
}

// dot8x4 accumulates the thirty-two dot products of rows a0..a7 against
// rows b0..b3 into acc (row-major: acc[ii*4+jj] += Σ_k a_ii[k]·b_jj[k]).
// Each accumulator sums in the same scalar-dot association as dot4x4 and
// dot, so widening the row tile from four to eight changes no output bit —
// it only doubles how often each loaded B element is reused in registers.
func dot8x4(a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3 []float64, acc *[32]float64) {
	n := len(a0)
	a1, a2, a3 = a1[:n], a2[:n], a3[:n]
	a4, a5, a6, a7 = a4[:n], a5[:n], a6[:n], a7[:n]
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	var s40, s41, s42, s43 float64
	var s50, s51, s52, s53 float64
	var s60, s61, s62, s63 float64
	var s70, s71, s72, s73 float64
	for k := 0; k < n; k++ {
		bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
		av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
		s00 += av0 * bv0
		s01 += av0 * bv1
		s02 += av0 * bv2
		s03 += av0 * bv3
		s10 += av1 * bv0
		s11 += av1 * bv1
		s12 += av1 * bv2
		s13 += av1 * bv3
		s20 += av2 * bv0
		s21 += av2 * bv1
		s22 += av2 * bv2
		s23 += av2 * bv3
		s30 += av3 * bv0
		s31 += av3 * bv1
		s32 += av3 * bv2
		s33 += av3 * bv3
		av4, av5, av6, av7 := a4[k], a5[k], a6[k], a7[k]
		s40 += av4 * bv0
		s41 += av4 * bv1
		s42 += av4 * bv2
		s43 += av4 * bv3
		s50 += av5 * bv0
		s51 += av5 * bv1
		s52 += av5 * bv2
		s53 += av5 * bv3
		s60 += av6 * bv0
		s61 += av6 * bv1
		s62 += av6 * bv2
		s63 += av6 * bv3
		s70 += av7 * bv0
		s71 += av7 * bv1
		s72 += av7 * bv2
		s73 += av7 * bv3
	}
	acc[0] += s00
	acc[1] += s01
	acc[2] += s02
	acc[3] += s03
	acc[4] += s10
	acc[5] += s11
	acc[6] += s12
	acc[7] += s13
	acc[8] += s20
	acc[9] += s21
	acc[10] += s22
	acc[11] += s23
	acc[12] += s30
	acc[13] += s31
	acc[14] += s32
	acc[15] += s33
	acc[16] += s40
	acc[17] += s41
	acc[18] += s42
	acc[19] += s43
	acc[20] += s50
	acc[21] += s51
	acc[22] += s52
	acc[23] += s53
	acc[24] += s60
	acc[25] += s61
	acc[26] += s62
	acc[27] += s63
	acc[28] += s70
	acc[29] += s71
	acc[30] += s72
	acc[31] += s73
}

// dotW4x4 is dot4x4 with a per-k diagonal weight: acc[ii*4+jj] +=
// Σ_k a_ii[k]·w[k]·b_jj[k]. The weight is folded into the A side once, so
// the inner step costs four extra multiplies rather than sixteen.
func dotW4x4(a0, a1, a2, a3 []float64, w []float64, b0, b1, b2, b3 []float64, acc *[16]float64) {
	n := len(a0)
	a1, a2, a3, w = a1[:n], a2[:n], a3[:n], w[:n]
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	for k := 0; k < n; k++ {
		wv := w[k]
		av0, av1, av2, av3 := a0[k]*wv, a1[k]*wv, a2[k]*wv, a3[k]*wv
		bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
		s00 += av0 * bv0
		s01 += av0 * bv1
		s02 += av0 * bv2
		s03 += av0 * bv3
		s10 += av1 * bv0
		s11 += av1 * bv1
		s12 += av1 * bv2
		s13 += av1 * bv3
		s20 += av2 * bv0
		s21 += av2 * bv1
		s22 += av2 * bv2
		s23 += av2 * bv3
		s30 += av3 * bv0
		s31 += av3 * bv1
		s32 += av3 * bv2
		s33 += av3 * bv3
	}
	acc[0] += s00
	acc[1] += s01
	acc[2] += s02
	acc[3] += s03
	acc[4] += s10
	acc[5] += s11
	acc[6] += s12
	acc[7] += s13
	acc[8] += s20
	acc[9] += s21
	acc[10] += s22
	acc[11] += s23
	acc[12] += s30
	acc[13] += s31
	acc[14] += s32
	acc[15] += s33
}

// dot is the scalar row-dot tail: Σ_k a[k]·b[k].
func dot(a, b []float64) float64 {
	var s float64
	for k, av := range a {
		s += av * b[k]
	}
	return s
}

// dotW is the scalar weighted row-dot tail: Σ_k a[k]·w[k]·b[k].
func dotW(a, w, b []float64) float64 {
	var s float64
	for k, av := range a {
		s += av * w[k] * b[k]
	}
	return s
}
