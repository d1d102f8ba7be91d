package dense

import "math"

// This file holds the colexicographic ("colex") linearization of the
// compact layout: the internal storage of the SymProp lattice
// interpreter's K tensors. Lexicographic order stays the layout of every
// buffer that leaves the interpreter.
//
// Colex sorts IOU tuples j1 <= ... <= jl by jl first, then j_{l-1}, and so
// on. The entries and their count Count(l, dim) are those of the
// lexicographic layout; only their positions differ. What colex buys is
// the block identity: block j, the tuples with jl = j, starts at offset
// Count(l, j) and holds Count(l-1, j+1) entries, and its prefixes
// (j1..j_{l-1}) are exactly the first Count(l-1, j+1) entries of the
// order-(l-1) colex layout, in the same order. One term of Algorithm 1,
// dst(j1..jl) += u[jl]·src(j1..j_{l-1}), is therefore dim contiguous axpys
// over prefixes of src — how symmetric storage is linearized decides
// whether its kernels are BLAS-shaped loops (Schatz et al., PAPERS.md).

// ColexOffsets returns the dim+1 block boundaries of the order-`order`
// colex layout: block j, the tuples whose last index is j, occupies
// [off[j], off[j+1]) with off[j] = Count(order, j). It panics if the
// layout has more than math.MaxInt32 entries.
func ColexOffsets(order, dim int) []int32 {
	mustFit(Count(order, dim) <= math.MaxInt32, "dense: colex layout order=%d dim=%d exceeds int32 offsets", order, dim)
	off := make([]int32, dim+1)
	for j := range off {
		off[j] = int32(Count(order, j))
	}
	return off
}

// ColexRank returns the offset of the IOU tuple idx (non-decreasing, all
// values non-negative) in the colex layout of an order-len(idx) symmetric
// tensor: Σ_a C(idx[a]+a, a+1) over 0-based positions a. Unlike Rank, it
// does not depend on the dimension size.
func ColexRank(idx []int) int64 {
	var rank int64
	for a, j := range idx {
		rank += Binomial(j+a, a+1)
	}
	return rank
}

// ColexGather returns the colex→lex gather table of the order-`order`
// layout: entry i is the colex offset of the i-th tuple in lexicographic
// order, so GatherLex with it turns a colex buffer into a lex one. It
// panics if the layout has more than math.MaxInt32 entries.
func ColexGather(order, dim int) []int32 {
	n := Count(order, dim)
	mustFit(n <= math.MaxInt32, "dense: colex layout order=%d dim=%d exceeds int32 offsets", order, dim)
	g := make([]int32, 0, n)
	ForEachIOU(order, dim, func(idx []int) {
		g = append(g, int32(ColexRank(idx)))
	})
	return g
}

// GatherLex writes the colex buffer src into dst in lexicographic order:
// dst[i] = src[g[i]] for the gather table g of ColexGather.
func GatherLex(dst, src []float64, g []int32) {
	dst = dst[:len(g)]
	for i, c := range g {
		dst[i] = src[c]
	}
}

// ColexNode overwrites dst, one lattice node's colex buffer of order l,
// with the sum of the node's edge terms
//
//	dst(j1..jl) = Σ_e us[e][jl] · srcs[e](j1..j_{l-1}),
//
// where off = ColexOffsets(l, dim) and srcs[e] is a colex buffer of order
// l-1 (at least Count(l-1, dim) long). Every entry is accumulated from +0
// in edge order, ((0 + s0·a0) + s1·a1) + …, so it carries exactly the bits
// of clearing dst and adding one OuterAccum per edge in lexicographic
// layout. Each block is one pass for up to four edges; wider nodes take
// one more pass per further four.
func ColexNode(dst []float64, off []int32, srcs, us [][]float64) {
	for j := 0; j+1 < len(off); j++ {
		d := dst[off[j]:off[j+1]]
		n := len(d)
		for e := 0; e < len(srcs); e += 4 {
			from0 := e == 0
			switch len(srcs) - e {
			case 1:
				colexTerms1(d, srcs[e][:n], us[e][j], from0)
			case 2:
				colexTerms2(d, srcs[e][:n], srcs[e+1][:n], us[e][j], us[e+1][j], from0)
			case 3:
				colexTerms3(d, srcs[e][:n], srcs[e+1][:n], srcs[e+2][:n], us[e][j], us[e+1][j], us[e+2][j], from0)
			default:
				colexTerms4(d, srcs[e][:n], srcs[e+1][:n], srcs[e+2][:n], srcs[e+3][:n],
					us[e][j], us[e+1][j], us[e+2][j], us[e+3][j], from0)
			}
		}
	}
}

// colexTerms1..4 add one to four edge terms to a block in one pass,
// starting each entry from +0 when from0 is set and from its current
// value otherwise. The explicit `0 +` is kept by the compiler (x + 0 is
// not an identity on -0), so a block starts exactly as a cleared buffer.

func colexTerms1(d, a0 []float64, s0 float64, from0 bool) {
	a0 = a0[:len(d)]
	if from0 {
		for k := range d {
			d[k] = 0 + s0*a0[k]
		}
		return
	}
	for k := range d {
		d[k] += s0 * a0[k]
	}
}

func colexTerms2(d, a0, a1 []float64, s0, s1 float64, from0 bool) {
	a0, a1 = a0[:len(d)], a1[:len(d)]
	if from0 {
		for k := range d {
			d[k] = 0 + s0*a0[k] + s1*a1[k]
		}
		return
	}
	for k := range d {
		d[k] = d[k] + s0*a0[k] + s1*a1[k]
	}
}

func colexTerms3(d, a0, a1, a2 []float64, s0, s1, s2 float64, from0 bool) {
	a0, a1, a2 = a0[:len(d)], a1[:len(d)], a2[:len(d)]
	if from0 {
		for k := range d {
			d[k] = 0 + s0*a0[k] + s1*a1[k] + s2*a2[k]
		}
		return
	}
	for k := range d {
		d[k] = d[k] + s0*a0[k] + s1*a1[k] + s2*a2[k]
	}
}

func colexTerms4(d, a0, a1, a2, a3 []float64, s0, s1, s2, s3 float64, from0 bool) {
	a0, a1, a2, a3 = a0[:len(d)], a1[:len(d)], a2[:len(d)], a3[:len(d)]
	if from0 {
		for k := range d {
			d[k] = 0 + s0*a0[k] + s1*a1[k] + s2*a2[k] + s3*a3[k]
		}
		return
	}
	for k := range d {
		d[k] = d[k] + s0*a0[k] + s1*a1[k] + s2*a2[k] + s3*a3[k]
	}
}
