package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Error("At/Set broken")
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != -2 {
		t.Error("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
	m.Zero()
	if m.At(0, 1) != 0 {
		t.Error("Zero broken")
	}
}

func TestNewMatrixFrom(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewMatrixFrom(2, 3, data)
	if m.At(1, 0) != 4 {
		t.Error("NewMatrixFrom layout wrong")
	}
	assertPanics(t, "length mismatch", func() { NewMatrixFrom(2, 2, data) })
	assertPanics(t, "negative dims", func() { NewMatrix(-1, 2) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatal("transpose shape wrong")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose values wrong")
			}
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{3, 0, 0, 4})
	if m.FrobeniusNorm() != 5 {
		t.Errorf("FrobeniusNorm = %v, want 5", m.FrobeniusNorm())
	}
}

func TestIdentityAndOrthonormalityError(t *testing.T) {
	id := Identity(4)
	if err := OrthonormalityError(id); err > 1e-15 {
		t.Errorf("identity orthonormality error %v", err)
	}
	bad := Identity(3)
	bad.Set(0, 1, 0.5)
	if err := OrthonormalityError(bad); err < 0.4 {
		t.Errorf("perturbed matrix should have large error, got %v", err)
	}
}

func naiveMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestGEMMVariantsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m := 1 + rng.Intn(20)
		k := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		a := RandomNormal(m, k, rng)
		b := RandomNormal(k, n, rng)

		if d := MaxAbsDiff(Mul(a, b), naiveMul(a, b)); d > 1e-12 {
			t.Fatalf("Mul differs from naive by %v", d)
		}
		at := RandomNormal(k, m, rng)
		if d := MaxAbsDiff(MulTN(at, b), naiveMul(at.T(), b)); d > 1e-12 {
			t.Fatalf("MulTN differs from naive by %v", d)
		}
		bt := RandomNormal(n, k, rng)
		if d := MaxAbsDiff(MulNT(a, bt), naiveMul(a, bt.T())); d > 1e-12 {
			t.Fatalf("MulNT differs from naive by %v", d)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	assertPanics(t, "Mul", func() { Mul(a, b) })
	c := NewMatrix(3, 4)
	assertPanics(t, "MulTN", func() { MulTN(a, c) })
	assertPanics(t, "MulNT", func() { MulNT(a, c) })
	assertPanics(t, "MulNTWeighted", func() { MulNTWeighted(a, a, []float64{1}) })
	assertPanics(t, "MaxAbsDiff", func() { MaxAbsDiff(a, c) })
}

func TestMulNTWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandomNormal(4, 5, rng)
	b := RandomNormal(3, 5, rng)
	w := []float64{1, 2, 0.5, 3, 1.5}
	// Reference: scale columns of b by w, then A·B'ᵀ.
	bs := b.Clone()
	for i := 0; i < bs.Rows; i++ {
		for j := 0; j < bs.Cols; j++ {
			bs.Set(i, j, bs.At(i, j)*w[j])
		}
	}
	want := MulNT(a, bs)
	got := MulNTWeighted(a, b, w)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("MulNTWeighted differs by %v", d)
	}
}

func TestRandomOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := RandomOrthonormal(20, 6, rng)
	if err := OrthonormalityError(q); err > 1e-10 {
		t.Errorf("RandomOrthonormal error %v", err)
	}
	assertPanics(t, "rows < cols", func() { RandomOrthonormal(3, 5, rng) })
}

func TestMaxAbsDiffValue(t *testing.T) {
	a := NewMatrixFrom(1, 3, []float64{1, 2, 3})
	b := NewMatrixFrom(1, 3, []float64{1, 2.5, 3})
	if d := MaxAbsDiff(a, b); math.Abs(d-0.5) > 1e-15 {
		t.Errorf("MaxAbsDiff = %v, want 0.5", d)
	}
}

// Property: associativity (A·B)·C == A·(B·C) ties the three GEMM variants
// together numerically.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, l, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandomNormal(m, k, rng)
		b := RandomNormal(k, l, rng)
		c := RandomNormal(l, n, rng)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return MaxAbsDiff(left, right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MulTN(A, B) == Mul(Aᵀ, B) and MulNT(A, B) == Mul(A, Bᵀ).
func TestTransposedVariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := RandomNormal(k, m, rng)
		b := RandomNormal(k, n, rng)
		if MaxAbsDiff(MulTN(a, b), Mul(a.T(), b)) > 1e-10 {
			return false
		}
		c := RandomNormal(m, k, rng)
		d := RandomNormal(n, k, rng)
		return MaxAbsDiff(MulNT(c, d), Mul(c, d.T())) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
