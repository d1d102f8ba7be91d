package csf

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// referenceTTMc computes Y(1) by brute force over the expanded non-zeros:
// Y(k, lin(r2..rN)) = sum over full non-zeros with i1=k of x * prod U(ij, rj).
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
		// Enumerate all r-index combinations of modes 2..N.
		for i := range rIdx {
			rIdx[i] = 0
		}
		for lin := 0; lin < outCols; lin++ {
			p := vals[k]
			for a := 0; a < n-1; a++ {
				p *= u.At(int(tuple[a+1]), rIdx[a])
			}
			row[lin] += p
			// Increment rIdx as a base-r counter, last position fastest.
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

func randomFactor(dim, r int, seed int64) *linalg.Matrix {
	return linalg.RandomNormal(dim, r, rand.New(rand.NewSource(seed)))
}

func TestFromSymmetricStructure(t *testing.T) {
	x := spsym.New(3, 5)
	x.Append([]int{0, 1, 2}, 1.0) // 6 permutations
	x.Append([]int{1, 1, 3}, 2.0) // 3 permutations
	x.Canonicalize()
	tree, err := FromSymmetric(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NNZ() != 9 {
		t.Fatalf("NNZ = %d, want 9", tree.NNZ())
	}
	// Root level: distinct first indices of the expansion {0,1,2,3}.
	if tree.NumNodes(0) != 4 {
		t.Fatalf("root nodes = %d, want 4", tree.NumNodes(0))
	}
	// Ptr arrays must be monotone and span all children.
	for d := 0; d < tree.Order; d++ {
		ptr := tree.Ptr[d]
		for i := 1; i < len(ptr); i++ {
			if ptr[i] < ptr[i-1] {
				t.Fatalf("level %d Ptr not monotone", d)
			}
		}
		want := int64(tree.NNZ())
		if d < tree.Order-1 {
			want = int64(tree.NumNodes(d + 1))
		}
		if ptr[len(ptr)-1] != want {
			t.Fatalf("level %d Ptr end = %d, want %d", d, ptr[len(ptr)-1], want)
		}
	}
}

func TestTTMcMode1AgainstReference(t *testing.T) {
	for _, tc := range []struct {
		order, dim, nnz, r int
		seed               int64
	}{
		{2, 4, 5, 3, 1},
		{3, 5, 8, 2, 2},
		{3, 5, 8, 4, 3},
		{4, 6, 10, 3, 4},
		{5, 4, 6, 2, 5},
	} {
		x, err := spsym.Random(spsym.RandomOptions{Order: tc.order, Dim: tc.dim, NNZ: tc.nnz, Seed: tc.seed, Values: spsym.ValueNormal})
		if err != nil {
			t.Fatal(err)
		}
		u := randomFactor(tc.dim, tc.r, tc.seed+100)
		tree, err := FromSymmetric(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.TTMcMode1(u, nil, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTTMc(x, u)
		if d := linalg.MaxAbsDiff(got, want); d > 1e-10 {
			t.Errorf("order=%d dim=%d r=%d: TTMc differs from reference by %v", tc.order, tc.dim, tc.r, d)
		}
	}
}

func TestTTMcWithRepeatedIndices(t *testing.T) {
	// Diagonal-heavy tensor stresses the permutation expansion.
	x := spsym.New(3, 3)
	x.Append([]int{0, 0, 0}, 2.0)
	x.Append([]int{1, 1, 2}, -1.5)
	x.Append([]int{0, 1, 2}, 0.5)
	x.Canonicalize()
	u := randomFactor(3, 3, 7)
	tree, err := FromSymmetric(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.TTMcMode1(u, nil, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTTMc(x, u)
	if d := linalg.MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("TTMc with repeats differs by %v", d)
	}
}

func TestFromSymmetricOOM(t *testing.T) {
	// An order-8 tensor with distinct indices expands 8! = 40320-fold;
	// a tiny guard must reject it.
	x, err := spsym.Random(spsym.RandomOptions{Order: 8, Dim: 30, NNZ: 100, Seed: 1, ForbidRepeats: true})
	if err != nil {
		t.Fatal(err)
	}
	guard := memguard.New(1 << 20)
	if _, err := FromSymmetric(x, guard); !errors.Is(err, memguard.ErrOutOfMemory) {
		t.Errorf("want ErrOutOfMemory, got %v", err)
	}
}

// TestBytesMatchesCharge pins Bytes to what construction charged: the
// guard holds exactly the tree's charge once FromSymmetric returns (the
// temporary expansion is already released), so a caller that drops the
// tree can return it with Release(t.Bytes()).
func TestBytesMatchesCharge(t *testing.T) {
	x, err := spsym.Random(spsym.RandomOptions{Order: 4, Dim: 9, NNZ: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	guard := memguard.New(1 << 30)
	tree, err := FromSymmetric(x, guard)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Bytes() <= 0 || guard.Used() != tree.Bytes() {
		t.Fatalf("guard holds %d bytes, tree reports %d", guard.Used(), tree.Bytes())
	}
	guard.Release(tree.Bytes())
	if guard.Used() != 0 {
		t.Errorf("releasing Bytes left %d bytes charged", guard.Used())
	}
}

func TestTTMcOutputOOM(t *testing.T) {
	x, err := spsym.Random(spsym.RandomOptions{Order: 6, Dim: 50, NNZ: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromSymmetric(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Y(1) is 50 x 10^5 doubles = 40 MB; a 1 MB guard must reject.
	u := randomFactor(50, 10, 3)
	if _, err := tree.TTMcMode1(u, memguard.New(1<<20), exec.Config{}); !errors.Is(err, memguard.ErrOutOfMemory) {
		t.Errorf("want ErrOutOfMemory, got %v", err)
	}
}

func TestFromExpandedValidation(t *testing.T) {
	if _, err := FromExpanded(3, 4, make([]int32, 5), make([]float64, 2), nil); err == nil {
		t.Error("mismatched index length should fail")
	}
}

func TestTTMcFactorShapeMismatch(t *testing.T) {
	x, _ := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 4, NNZ: 5, Seed: 1})
	tree, err := FromSymmetric(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.TTMcMode1(linalg.NewMatrix(3, 2), nil, exec.Config{}); err == nil {
		t.Error("factor row mismatch should fail")
	}
}

func TestEmptyTensor(t *testing.T) {
	x := spsym.New(3, 4)
	tree, err := FromSymmetric(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := randomFactor(4, 2, 1)
	y, err := tree.TTMcMode1(u, nil, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if y.FrobeniusNorm() != 0 {
		t.Error("empty tensor must produce zero Y")
	}
}

func TestTTMcRejectsOrderOne(t *testing.T) {
	x := spsym.New(1, 4)
	x.Append([]int{2}, 1.0)
	x.Canonicalize()
	tree, err := FromSymmetric(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.TTMcMode1(linalg.NewMatrix(4, 2), nil, exec.Config{}); err == nil {
		t.Error("order-1 TTMc must fail cleanly")
	}
}
