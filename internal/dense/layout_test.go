package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {10, 5, 252},
		{14, 7, 3432}, {52, 5, 2598960}, {3, 4, 0}, {3, -1, 0}, {-1, 0, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	for n := 2; n < 60; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at n=%d k=%d", n, k)
			}
		}
	}
}

func TestBinomialLargeFallback(t *testing.T) {
	// n >= binomialTableSize exercises the iterative path.
	if got := Binomial(130, 1); got != 130 {
		t.Errorf("Binomial(130,1) = %d, want 130", got)
	}
	if got := Binomial(130, 2); got != 130*129/2 {
		t.Errorf("Binomial(130,2) = %d, want %d", got, 130*129/2)
	}
	if got := Binomial(200, 100); got != math.MaxInt64 {
		t.Errorf("Binomial(200,100) should saturate, got %d", got)
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		order, dim int
		want       int64
	}{
		{3, 2, 4},    // paper's example tensor T: 4 IOU entries
		{2, 3, 6},    // upper triangle incl. diagonal of 3x3
		{0, 5, 1},    // single scalar
		{4, 1, 1},    // all-ones index
		{5, 0, 0},    // empty dimension
		{6, 4, 84},   // C(9,6)
		{13, 4, 560}, // order-14 tensor's level-13, rank-4 compact size C(16,13)
	}
	for _, c := range cases {
		if got := Count(c.order, c.dim); got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.order, c.dim, got, c.want)
		}
	}
}

// Count must equal the number of tuples ForEachIOU visits.
func TestCountMatchesIteration(t *testing.T) {
	for order := 1; order <= 6; order++ {
		for dim := 1; dim <= 5; dim++ {
			n := 0
			ForEachIOU(order, dim, func([]int) { n++ })
			if int64(n) != Count(order, dim) {
				t.Errorf("order=%d dim=%d: iterated %d, Count=%d", order, dim, n, Count(order, dim))
			}
		}
	}
}

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
	if Factorial(30) != math.MaxInt64 {
		t.Error("Factorial(30) should saturate")
	}
}

func TestMultinomial(t *testing.T) {
	cases := []struct {
		counts []int
		want   int64
	}{
		{[]int{3}, 1},        // (a,a,a): 1 permutation
		{[]int{2, 1}, 3},     // (a,a,b): 3
		{[]int{1, 1, 1}, 6},  // distinct: 3! = 6
		{[]int{2, 2}, 6},     // (a,a,b,b): 4!/(2!2!)
		{[]int{1, 2, 3}, 60}, // 6!/(1!2!3!)
		{nil, 1},
	}
	for _, c := range cases {
		if got := Multinomial(c.counts); got != c.want {
			t.Errorf("Multinomial(%v) = %d, want %d", c.counts, got, c.want)
		}
	}
}

func TestPermutationCount(t *testing.T) {
	cases := []struct {
		idx  []int
		want int64
	}{
		{[]int{1, 3, 5}, 6},
		{[]int{1, 1, 3}, 3},
		{[]int{7, 7, 7, 7}, 1},
		{[]int{0, 1, 1, 2, 2, 2}, 60},
		{[]int{4}, 1},
		// Unsorted tuples count the same multiset.
		{[]int{5, 3, 1}, 6},
		{[]int{3, 1, 3}, 3},
		{[]int{2, 1, 2, 0, 2, 1}, 60},
		// All equal, and order 16 (dense.MaxOrder).
		{[]int{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, 1},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 20922789888000},
		{[]int{7, 0, 6, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 6, 0, 7}, 81729648000},
	}
	for _, c := range cases {
		if got := PermutationCount(c.idx); got != c.want {
			t.Errorf("PermutationCount(%v) = %d, want %d", c.idx, got, c.want)
		}
	}
}

// Rank must enumerate 0,1,2,... in the exact order ForEachIOU produces.
func TestRankMatchesIterationOrder(t *testing.T) {
	for order := 1; order <= 5; order++ {
		for dim := 1; dim <= 5; dim++ {
			want := int64(0)
			ForEachIOU(order, dim, func(idx []int) {
				if got := Rank(idx, dim); got != want {
					t.Fatalf("order=%d dim=%d idx=%v: Rank=%d, want %d", order, dim, idx, got, want)
				}
				want++
			})
		}
	}
}

func TestUnrankInvertsRank(t *testing.T) {
	out := make([]int, 4)
	for order := 1; order <= 4; order++ {
		dim := 5
		total := Count(order, dim)
		for r := int64(0); r < total; r++ {
			Unrank(r, order, dim, out[:order])
			if got := Rank(out[:order], dim); got != r {
				t.Fatalf("Unrank(%d) = %v, Rank back = %d", r, out[:order], got)
			}
			if !IsIOU(out[:order], dim) {
				t.Fatalf("Unrank(%d) = %v not IOU", r, out[:order])
			}
		}
	}
}

func TestRankUnrankProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 1 + rng.Intn(8)
		dim := 1 + rng.Intn(9)
		idx := make([]int, order)
		for i := range idx {
			idx[i] = rng.Intn(dim)
		}
		SortIndex(idx)
		r := Rank(idx, dim)
		out := make([]int, order)
		Unrank(r, order, dim, out)
		for i := range idx {
			if idx[i] != out[i] {
				return false
			}
		}
		return r >= 0 && r < Count(order, dim)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestIsIOU(t *testing.T) {
	if !IsIOU([]int{0, 0, 1}, 2) {
		t.Error("(0,0,1) should be IOU in dim 2")
	}
	if IsIOU([]int{1, 0}, 2) {
		t.Error("(1,0) is not IOU")
	}
	if IsIOU([]int{0, 2}, 2) {
		t.Error("value 2 out of range for dim 2")
	}
	if IsIOU([]int{-1}, 2) {
		t.Error("negative index is not IOU")
	}
	if !IsIOU(nil, 2) {
		t.Error("empty tuple is vacuously IOU")
	}
}

func TestSortIndex(t *testing.T) {
	idx := []int{5, 3, 1, 3}
	SortIndex(idx)
	want := []int{1, 3, 3, 5}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("SortIndex = %v, want %v", idx, want)
		}
	}
}

// The paper's §II-A example: order-3 2x2x2 symmetric tensor with IOU values
// [1,2,3,4] at (0,0,0),(0,0,1),(0,1,1),(1,1,1).
func TestSymTensorPaperExample(t *testing.T) {
	tt := NewSymTensor(3, 2)
	tt.Set(1, 0, 0, 0)
	tt.Set(2, 0, 0, 1)
	tt.Set(3, 0, 1, 1)
	tt.Set(4, 1, 1, 1)
	for i, want := range []float64{1, 2, 3, 4} {
		if tt.Data[i] != want {
			t.Errorf("Data[%d] = %v, want %v", i, tt.Data[i], want)
		}
	}
	// All permutations of (0,0,1) read the same value 2.
	if tt.At(0, 0, 1) != 2 || tt.At(0, 1, 0) != 2 || tt.At(1, 0, 0) != 2 {
		t.Error("permutations of (0,0,1) disagree")
	}
	if tt.At(0, 1, 1) != 3 || tt.At(1, 0, 1) != 3 || tt.At(1, 1, 0) != 3 {
		t.Error("permutations of (0,1,1) disagree")
	}
	full := tt.Expand()
	want := []float64{1, 2, 2, 3, 2, 3, 3, 4}
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("Expand = %v, want %v", full, want)
		}
	}
}

func TestSymTensorExpandSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tt := NewSymTensor(3, 4)
	for i := range tt.Data {
		tt.Data[i] = rng.NormFloat64()
	}
	full := tt.Expand()
	dim := int64(tt.Dim)
	at := func(a, b, c int) float64 {
		return full[int64(a)*dim*dim+int64(b)*dim+int64(c)]
	}
	for a := 0; a < tt.Dim; a++ {
		for b := 0; b < tt.Dim; b++ {
			for c := 0; c < tt.Dim; c++ {
				v := at(a, b, c)
				if v != at(a, c, b) || v != at(b, a, c) || v != at(c, b, a) {
					t.Fatalf("expanded tensor not symmetric at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestPow64(t *testing.T) {
	if Pow64(3, 4) != 81 {
		t.Error("3^4 != 81")
	}
	if Pow64(10, 0) != 1 {
		t.Error("10^0 != 1")
	}
	if Pow64(2, 63) != math.MaxInt64 {
		t.Error("2^63 should saturate")
	}
	if Pow64(400, 12) != math.MaxInt64 {
		t.Error("400^12 should saturate")
	}
}

func TestPermCounts(t *testing.T) {
	// Order 2, dim 2: IOU tuples (0,0),(0,1),(1,1) with 1,2,1 permutations.
	p := PermCounts(2, 2)
	want := []float64{1, 2, 1}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PermCounts(2,2) = %v, want %v", p, want)
		}
	}
	// Sum of permutation counts must equal the full size dim^order.
	for order := 1; order <= 5; order++ {
		for dim := 1; dim <= 4; dim++ {
			p := PermCounts(order, dim)
			sum := 0.0
			for _, v := range p {
				sum += v
			}
			if sum != float64(Pow64(int64(dim), order)) {
				t.Errorf("order=%d dim=%d: sum(p)=%v, want %d", order, dim, sum, Pow64(int64(dim), order))
			}
		}
	}
}
