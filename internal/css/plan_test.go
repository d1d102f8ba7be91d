package css

import (
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/linalg"
)

func TestBuildPlanAllDistinct(t *testing.T) {
	// Order-3, all distinct: the paper's Fig. 3 example (1,3,5).
	p, err := BuildPlan([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Order != 3 || len(p.Sig) != 3 {
		t.Fatalf("order=%d slots=%d", p.Order, len(p.Sig))
	}
	// Level 1: 3 nodes; level 2: C(3,2) = 3 nodes (the K_{1,3}, K_{1,5}, K_{3,5}).
	if len(p.Levels[0]) != 3 || len(p.Levels[1]) != 3 {
		t.Fatalf("level sizes %d, %d; want 3, 3", len(p.Levels[0]), len(p.Levels[1]))
	}
	// Each level-2 node is built from 2 edges (its two distinct values).
	for _, n := range p.Levels[1] {
		if len(n.Edges) != 2 {
			t.Errorf("node %x has %d edges, want 2", n.Key, len(n.Edges))
		}
	}
	// Tops are distinct nodes.
	seen := map[int]bool{}
	for _, top := range p.Tops {
		if seen[top] {
			t.Error("duplicate top node")
		}
		seen[top] = true
	}
}

func TestBuildPlanWithRepeats(t *testing.T) {
	// Signature (2,1): tuple like (a,a,b), order 3.
	p, err := BuildPlan([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Level 1: {a}, {b}. Level 2: {a,a}, {a,b}.
	if len(p.Levels[0]) != 2 || len(p.Levels[1]) != 2 {
		t.Fatalf("level sizes %d, %d; want 2, 2", len(p.Levels[0]), len(p.Levels[1]))
	}
	// {a,a} has one edge (remove a); {a,b} has two.
	edgeCounts := map[Key]int{}
	for _, n := range p.Levels[1] {
		edgeCounts[n.Key] = len(n.Edges)
	}
	if edgeCounts[2] != 1 { // key 0x2 = two copies of slot 0
		t.Errorf("{a,a} edges = %d, want 1", edgeCounts[2])
	}
	if edgeCounts[0x11] != 2 { // one of each slot
		t.Errorf("{a,b} edges = %d, want 2", edgeCounts[0x11])
	}
	// Tops: minus-a = {a,b}, minus-b = {a,a}.
	if p.Levels[1][p.Tops[0]].Key != 0x11 {
		t.Error("top for slot 0 should be {a,b}")
	}
	if p.Levels[1][p.Tops[1]].Key != 0x2 {
		t.Error("top for slot 1 should be {a,a}")
	}
}

func TestBuildPlanSingleSlotMaxOrder(t *testing.T) {
	// The (16) signature exercises the digit-carry edge case.
	p, err := BuildPlan([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	if p.Order != 16 {
		t.Fatalf("order = %d, want 16", p.Order)
	}
	for l, lvl := range p.Levels {
		if len(lvl) != 1 {
			t.Fatalf("level %d has %d nodes, want 1", l+1, len(lvl))
		}
		if l > 0 && len(lvl[0].Edges) != 1 {
			t.Fatalf("level %d node has %d edges, want 1", l+1, len(lvl[0].Edges))
		}
	}
	if p.Tops[0] != 0 {
		t.Error("single-slot top must be the only level-15 node")
	}
}

func TestBuildPlanErrors(t *testing.T) {
	cases := [][]int{
		{},              // order 0
		{1},             // order 1 (< 2)
		{0, 2},          // zero count
		{-1, 3},         // negative count
		{17},            // order beyond MaxOrder
		make([]int, 20), // too many slots (all zero anyway)
	}
	for _, sig := range cases {
		if _, err := BuildPlan(sig); err == nil {
			t.Errorf("BuildPlan(%v) should fail", sig)
		}
	}
	long := make([]int, 17)
	for i := range long {
		long[i] = 1
	}
	if _, err := BuildPlan(long); err == nil {
		t.Error("17 slots should fail")
	}
}

func TestPlanNodeCountsAllDistinct(t *testing.T) {
	// All-distinct signature of order N: level l has C(N, l) nodes.
	for order := 2; order <= 8; order++ {
		sig := make([]int, order)
		for i := range sig {
			sig[i] = 1
		}
		p, err := BuildPlan(sig)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= order-1; l++ {
			want := dense.Binomial(order, l)
			if int64(len(p.Levels[l-1])) != want {
				t.Errorf("order %d level %d: %d nodes, want %d", order, l, len(p.Levels[l-1]), want)
			}
		}
	}
}

func TestSignature(t *testing.T) {
	values := make([]int32, 8)
	sig := make([]int, 8)
	v, s := Signature([]int32{1, 1, 3, 5, 5, 5}, values, sig)
	wantV := []int32{1, 3, 5}
	wantS := []int{2, 1, 3}
	if len(v) != 3 || len(s) != 3 {
		t.Fatalf("lengths %d, %d; want 3, 3", len(v), len(s))
	}
	for i := range wantV {
		if v[i] != wantV[i] || s[i] != wantS[i] {
			t.Fatalf("Signature = %v %v, want %v %v", v, s, wantV, wantS)
		}
	}
}

// evaluate runs the plan with compact K buffers over actual U rows and
// returns the top tensors, one per slot.
func evaluate(p *Plan, values []int32, u *linalg.Matrix) [][]float64 {
	r := u.Cols
	bufs := make([][][]float64, len(p.Levels))
	for li, lvl := range p.Levels {
		l := li + 1
		bufs[li] = make([][]float64, len(lvl))
		for n := range lvl {
			bufs[li][n] = make([]float64, dense.Count(l, r))
		}
	}
	for n := range p.Levels[0] {
		copy(bufs[0][n], u.Row(int(values[n])))
	}
	for li := 1; li < len(p.Levels); li++ {
		l := li + 1
		for n, node := range p.Levels[li] {
			dst := bufs[li][n]
			for _, e := range node.Edges {
				dense.OuterAccum(l, dst, bufs[li-1][e.Child], u.Row(int(values[e.Slot])), r)
			}
		}
	}
	tops := make([][]float64, len(p.Tops))
	for t, n := range p.Tops {
		tops[t] = bufs[len(p.Levels)-1][n]
	}
	return tops
}

// bruteKTilde computes K̃[multiset](j) = sum over distinct permutations of
// the multiset of prod_a U(perm_a, j_a), at a compact IOU index j.
func bruteKTilde(multiset []int32, u *linalg.Matrix, r int) []float64 {
	l := len(multiset)
	out := make([]float64, dense.Count(l, r))
	perm := append([]int32(nil), multiset...)
	// Enumerate distinct permutations via next-permutation.
	for {
		pos := int64(0)
		dense.ForEachIOU(l, r, func(j []int) {
			p := 1.0
			for a := 0; a < l; a++ {
				p *= u.At(int(perm[a]), j[a])
			}
			out[pos] += p
			pos++
		})
		if !nextPermutation(perm) {
			break
		}
	}
	return out
}

func nextPermutation(p []int32) bool {
	n := len(p)
	i := n - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := n - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, n-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return true
}

// The lattice recursion must reproduce the brute-force distinct-permutation
// K̃ tensors at every top (Property 1 + DESIGN.md §3.2).
func TestPlanEvaluationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := []struct {
		tuple []int32
	}{
		{[]int32{0, 1}},
		{[]int32{2, 2}},
		{[]int32{0, 1, 2}},
		{[]int32{1, 1, 3}},
		{[]int32{2, 2, 2}},
		{[]int32{0, 1, 2, 4}},
		{[]int32{0, 0, 3, 3}},
		{[]int32{1, 1, 1, 2, 5}},
	}
	for _, tc := range cases {
		dim := 6
		r := 3
		u := linalg.RandomNormal(dim, r, rng)
		values := make([]int32, len(tc.tuple))
		sig := make([]int, len(tc.tuple))
		v, s := Signature(tc.tuple, values, sig)
		p, err := BuildPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		tops := evaluate(p, v, u)
		for slot := range v {
			// Multiset minus one copy of v[slot].
			var rest []int32
			removed := false
			for _, x := range tc.tuple {
				if !removed && x == v[slot] {
					removed = true
					continue
				}
				rest = append(rest, x)
			}
			want := bruteKTilde(rest, u, r)
			got := tops[slot]
			for i := range want {
				if diff := want[i] - got[i]; diff > 1e-10 || diff < -1e-10 {
					t.Fatalf("tuple %v slot %d entry %d: got %v, want %v", tc.tuple, slot, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFlopCounts(t *testing.T) {
	// All-distinct order-4, rank 2: level 2 has C(4,2)=6 nodes x 2 edges x
	// 2*S_{2,2}=6 flops = 72; level 3 has 4 nodes x 3 edges x 2*S_{3,2}=8
	// flops = 96. Total 168.
	p, err := BuildPlan([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CompactFlops(2); got != 168 {
		t.Errorf("CompactFlops = %d, want 168", got)
	}
	// Full: level 2: 6*2*2*4 = 96; level 3: 4*3*2*8 = 192. Total 288.
	if got := p.FullFlops(2); got != 288 {
		t.Errorf("FullFlops = %d, want 288", got)
	}
	// SymProp must never cost more than CSS.
	for r := 2; r <= 10; r++ {
		if p.CompactFlops(r) > p.FullFlops(r) {
			t.Errorf("rank %d: compact flops exceed full flops", r)
		}
	}
}

func TestCacheMemoizes(t *testing.T) {
	var c Cache
	p1, err := c.Get([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache returned distinct plans for the same signature")
	}
	if _, err := c.Get([]int{2, 1}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("cache has %d plans, want 2", c.Len())
	}
	if _, err := c.Get([]int{0}); err == nil {
		t.Error("invalid signature must propagate the build error")
	}
}

func TestCacheConcurrent(t *testing.T) {
	var c Cache
	done := make(chan *Plan, 16)
	for w := 0; w < 16; w++ {
		go func() {
			p, err := c.Get([]int{1, 1, 1, 1})
			if err != nil {
				done <- nil
				return
			}
			done <- p
		}()
	}
	var first *Plan
	for w := 0; w < 16; w++ {
		p := <-done
		if p == nil {
			t.Fatal("concurrent Get failed")
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Fatal("concurrent Gets returned different plan instances")
		}
	}
}

func TestNumNodes(t *testing.T) {
	p, err := BuildPlan([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 6 {
		t.Errorf("NumNodes = %d, want 6", p.NumNodes())
	}
}

func TestBuildPlanLargeMixedSignature(t *testing.T) {
	// (14,2): order 16 with two distinct values, a boundary case for the
	// 4-bit count encoding (counts up to 14 in slot 0).
	p, err := BuildPlan([]int{14, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Order != 16 {
		t.Fatalf("order = %d", p.Order)
	}
	// Level l has min(l,14)-max(0,l-2) ... simply verify counts against a
	// brute-force enumeration of (k0,k1) pairs with k0<=14, k1<=2, k0+k1=l.
	for li, lvl := range p.Levels {
		l := li + 1
		want := 0
		for k0 := 0; k0 <= 14; k0++ {
			k1 := l - k0
			if k1 >= 0 && k1 <= 2 {
				want++
			}
		}
		if len(lvl) != want {
			t.Errorf("level %d: %d nodes, want %d", l, len(lvl), want)
		}
	}
	if len(p.Tops) != 2 {
		t.Fatalf("tops = %d", len(p.Tops))
	}
}
