// Package dense implements compact storage and iteration for dense
// symmetric tensors.
//
// An order-N symmetric tensor with dimension size R is fully determined by
// its index-ordered-unique (IOU) entries, i.e. the entries at indices
// j1 <= j2 <= ... <= jN. This package stores exactly those entries,
// linearized in lexicographic order of the IOU tuple, which needs
// Count(N, R) = C(N+R-1, N) values instead of R^N — asymptotically an N!
// reduction (paper §II-B).
//
// Paper Algorithm 1 iterates this layout with perfectly nested loops. Go
// has no template metaprogramming, so the loop nests for every order up to
// MaxGenOrder are generated ahead of time by tools/geniterate and checked
// in as iterate_gen.go; higher orders fall back to a recursive
// implementation. A third strategy — the boundary-trace index-mapping
// iterator of Ballard et al. — exists solely as the comparison baseline
// for the paper's §VI-B.4 ablation. The SymProp lattice interpreter keeps
// its K tensors in the colexicographic order of colex.go instead, where
// each Algorithm-1 term is a run of contiguous axpys.
package dense

import (
	"fmt"
	"math"
)

// MaxOrder is the largest tensor order supported anywhere in this module.
// The paper evaluates orders up to 14; we leave headroom.
const MaxOrder = 16

// binomialTableSize bounds n in the precomputed C(n, k) table. Ranking an
// IOU tuple of order N over dimension R needs C(n, k) for n up to N+R-1,
// so the table is sized generously and falls back to float-free iterative
// computation beyond it.
const binomialTableSize = 128

var binomialTable [binomialTableSize][binomialTableSize]int64

func init() {
	for n := 0; n < binomialTableSize; n++ {
		binomialTable[n][0] = 1
		for k := 1; k <= n; k++ {
			v := binomialTable[n-1][k-1]
			if k < n {
				v += binomialTable[n-1][k]
			}
			// Saturate instead of overflowing; callers that need exact
			// counts beyond int64 are out of scope for this library.
			if v < 0 || binomialTable[n-1][k-1] < 0 {
				v = math.MaxInt64
			}
			binomialTable[n][k] = v
		}
	}
}

// Binomial returns C(n, k), saturating at math.MaxInt64. It returns 0 for
// k < 0 or k > n, matching the combinatorial convention.
func Binomial(n, k int) int64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	if n < binomialTableSize {
		return binomialTable[n][k]
	}
	// Iterative fallback with overflow saturation.
	result := int64(1)
	for i := 1; i <= k; i++ {
		hi := result * int64(n-k+i)
		if result != 0 && hi/result != int64(n-k+i) {
			return math.MaxInt64
		}
		result = hi / int64(i)
	}
	return result
}

// Count returns S_{n,r} = C(n+r-1, n), the number of IOU entries of an
// order-n symmetric tensor with dimension size r (paper Table I).
func Count(order, dim int) int64 {
	if order < 0 || dim < 0 {
		return 0
	}
	if order == 0 {
		return 1
	}
	if dim == 0 {
		return 0
	}
	return Binomial(order+dim-1, order)
}

// Factorial returns n!, saturating at math.MaxInt64.
func Factorial(n int) int64 {
	result := int64(1)
	for i := 2; i <= n; i++ {
		hi := result * int64(i)
		if hi/result != int64(i) {
			return math.MaxInt64
		}
		result = hi
	}
	return result
}

// Multinomial returns n! / (c0! * c1! * ... ), the number of distinct
// permutations of a multiset with the given value multiplicities counts
// (which must sum to n). It computes the quotient incrementally to avoid
// overflow on intermediate factorials.
func Multinomial(counts []int) int64 {
	n := 0
	result := int64(1)
	for _, c := range counts {
		for i := 1; i <= c; i++ {
			n++
			result = result * int64(n) / int64(i)
		}
	}
	return result
}

// PermutationCount returns the number of distinct permutations of the
// (not necessarily sorted) index tuple idx: len(idx)! / prod(mult!). It
// extends the count one position at a time: the prefix idx[:a+1] has
// (a+1)/c times the permutations of idx[:a], where c is idx[a]'s
// multiplicity in that prefix, so every division is exact.
func PermutationCount(idx []int) int64 {
	result := int64(1)
	for a, v := range idx {
		c := 0
		for _, w := range idx[:a+1] {
			if w == v {
				c++
			}
		}
		result = result * int64(a+1) / int64(c)
	}
	return result
}

// Rank returns the linear offset of the IOU tuple idx (which must be
// non-decreasing with all values in [0, dim)) in the lexicographic compact
// layout of an order-len(idx) symmetric tensor with dimension size dim.
//
// Tuples are ordered lexicographically: (0,0,0) < (0,0,1) < ... < (0,1,1) <
// ... . For each position a, every admissible smaller leading value v
// contributes Count(n-a-1, dim-v) subsequent completions.
func Rank(idx []int, dim int) int64 {
	n := len(idx)
	var rank int64
	lo := 0
	for a := 0; a < n; a++ {
		j := idx[a]
		for v := lo; v < j; v++ {
			rank += Count(n-a-1, dim-v)
		}
		lo = j
	}
	return rank
}

// Unrank writes into out the IOU tuple at linear offset rank of the compact
// layout with the given order and dimension size. It is the inverse of Rank.
// out must have length order.
func Unrank(rank int64, order, dim int, out []int) {
	lo := 0
	for a := 0; a < order; a++ {
		v := lo
		for {
			block := Count(order-a-1, dim-v)
			if rank < block {
				break
			}
			rank -= block
			v++
		}
		out[a] = v
		lo = v
	}
}

// IsIOU reports whether idx is non-decreasing (index-ordered unique) with
// all values in [0, dim).
func IsIOU(idx []int, dim int) bool {
	prev := 0
	for a, v := range idx {
		if v < 0 || v >= dim {
			return false
		}
		if a > 0 && v < prev {
			return false
		}
		prev = v
	}
	return true
}

// SortedCopy returns a sorted copy of idx (insertion sort; tuples are tiny).
func SortedCopy(idx []int) []int {
	out := make([]int, len(idx))
	copy(out, idx)
	SortIndex(out)
	return out
}

// SortIndex sorts the short index tuple in place with insertion sort,
// which beats sort.Ints for the order<=16 tuples used throughout.
func SortIndex(idx []int) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && idx[j] > v {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}

// SymTensor is a dense fully symmetric tensor of the given order and
// dimension size, stored compactly: Data[Rank(idx)] holds the value of every
// permutation of idx.
type SymTensor struct {
	Order int
	Dim   int
	Data  []float64
}

// mustFit panics with a formatted message when ok is false. Allocation
// bounds on the compact layout are a programmer invariant: the drivers
// size dense intermediates from rank and order, which are validated at the
// API boundary long before any allocation happens, so exceeding the bound
// mirrors make's behaviour for impossible allocations. The symlint
// panicpolicy analyzer keeps library panics inside documented helpers like
// this one.
func mustFit(ok bool, format string, args ...any) {
	if ok {
		return
	}
	panic(fmt.Sprintf(format, args...))
}

// NewSymTensor allocates a zero symmetric tensor. It panics if the compact
// size does not fit in an int, mirroring make's behaviour for impossible
// allocations.
func NewSymTensor(order, dim int) *SymTensor {
	size := Count(order, dim)
	mustFit(size <= math.MaxInt32*64, "dense: compact symmetric tensor order=%d dim=%d too large (%d entries)", order, dim, size)
	return &SymTensor{Order: order, Dim: dim, Data: make([]float64, size)}
}

// At returns the entry at the (arbitrary-permutation) index idx.
func (t *SymTensor) At(idx ...int) float64 {
	s := SortedCopy(idx)
	return t.Data[Rank(s, t.Dim)]
}

// Set stores v at every permutation of idx.
func (t *SymTensor) Set(v float64, idx ...int) {
	s := SortedCopy(idx)
	t.Data[Rank(s, t.Dim)] = v
}

// Pow64 returns base^exp for non-negative exp, saturating at math.MaxInt64.
func Pow64(base int64, exp int) int64 {
	result := int64(1)
	for i := 0; i < exp; i++ {
		hi := result * base
		if base != 0 && hi/base != result {
			return math.MaxInt64
		}
		result = hi
	}
	return result
}

// Expand materializes the full dense tensor in row-major layout
// (last index fastest). Intended for tests and tiny examples only.
func (t *SymTensor) Expand() []float64 {
	table := ExpansionTable(t.Order, t.Dim)
	out := make([]float64, len(table))
	for lin, rk := range table {
		out[lin] = t.Data[rk]
	}
	return out
}

// ExpansionTable is the expansion E of paper Property 2 as a gather table.
// Entry lin is the compact rank of full position lin of an order-`order`
// symmetric layout over dimension dim, with the first digit slowest: the
// Rank of its digits sorted. So a full unfolding's column lin is column
// table[lin] of the compact one, and the first lin that maps to a rank is
// the rank's own ascending IOU tuple. It panics if the full layout has
// more than math.MaxInt32 positions.
func ExpansionTable(order, dim int) []int32 {
	full := Pow64(int64(dim), order)
	mustFit(full <= math.MaxInt32, "dense: expansion table order=%d dim=%d exceeds int32 positions", order, dim)
	table := make([]int32, full)
	digits := make([]int, order)
	sorted := make([]int, order)
	for lin := range table {
		copy(sorted, digits)
		SortIndex(sorted)
		table[lin] = int32(Rank(sorted, dim))
		// Advance the digits odometer, last digit fastest.
		for a := order - 1; a >= 0; a-- {
			if digits[a]++; digits[a] < dim {
				break
			}
			digits[a] = 0
		}
	}
	return table
}

// PermCounts returns the vector p of paper Property 3: p[i] is the number
// of distinct permutations of the i-th IOU tuple of the compact layout with
// the given order and dimension size. It is computed once per (order, dim)
// by the Tucker drivers and memoized by the caller.
func PermCounts(order, dim int) []float64 {
	n := Count(order, dim)
	p := make([]float64, n)
	idx := make([]int, order)
	i := 0
	ForEachIOU(order, dim, func(tuple []int) {
		copy(idx, tuple)
		p[i] = float64(PermutationCount(idx))
		i++
	})
	return p
}
