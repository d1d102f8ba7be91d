package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// The GEMM ablation behind EXPERIMENTS.md §gemm: every variant is measured
// in its register-blocked form (impl=blocked, the live code in gemm.go) and
// against the pre-blocking one-level loops (impl=naive, preserved in
// gemm_test.go as the golden reference). Both run on one goroutine, since
// the one-call products walk all their rows on the caller's, so their
// ratio measures the blocking alone. Square operands; the 256 and 512
// points are the acceptance sizes, 64 shows the small-operand regime the
// Tucker drivers mostly live in. The shape= rows are the dense products that
// dominate a perfbench workload, at that workload's operand shapes, also on
// one goroutine; the drivers run them as plans on the run's workers.
var gemmBenchSizes = []int{64, 256, 512}

func benchPair(n int) (*Matrix, *Matrix, []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	a := RandomNormal(n, n, rng)
	b := RandomNormal(n, n, rng)
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() + 0.5
	}
	return a, b, w
}

func BenchmarkMul(b *testing.B) {
	for _, n := range gemmBenchSizes {
		a, bb, _ := benchPair(n)
		b.Run(fmt.Sprintf("impl=blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Mul(a, bb)
			}
		})
		b.Run(fmt.Sprintf("impl=naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMulRows(a, bb)
			}
		})
	}
}

func BenchmarkMulTN(b *testing.B) {
	for _, n := range gemmBenchSizes {
		a, bb, _ := benchPair(n)
		b.Run(fmt.Sprintf("impl=blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulTN(a, bb)
			}
		})
		b.Run(fmt.Sprintf("impl=naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMulTN(a, bb)
			}
		})
	}
}

func BenchmarkMulNT(b *testing.B) {
	for _, n := range gemmBenchSizes {
		a, bb, _ := benchPair(n)
		b.Run(fmt.Sprintf("impl=blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulNT(a, bb)
			}
		})
		if n >= 256 {
			// The Gram form HOOI calls: upper triangle only, then mirrored.
			b.Run(fmt.Sprintf("impl=aliased/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulNT(a, a)
				}
			})
		}
		b.Run(fmt.Sprintf("impl=naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMulNT(a, bb)
			}
		})
	}
	// hooi-contact's Gram: the 245 x 20,736 full unfolding times itself.
	b.Run("impl=aliased/shape=245x20736", func(b *testing.B) {
		y := RandomNormal(245, 20736, rand.New(rand.NewSource(245)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulNT(y, y)
		}
	})
}

func BenchmarkMulNTWeighted(b *testing.B) {
	for _, n := range gemmBenchSizes[1:] {
		a, bb, w := benchPair(n)
		b.Run(fmt.Sprintf("impl=blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulNTWeighted(a, bb, w)
			}
		})
		b.Run(fmt.Sprintf("impl=naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMulNTWeighted(a, bb, w)
			}
		})
	}
	// hoqri-walmart's times-core product: Y_p (1,000 x 11,440) times
	// diag(p)·C_pᵀ at rank 10.
	b.Run("impl=blocked/shape=1000x11440x10", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1000))
		yp, cp := RandomNormal(1000, 11440, rng), RandomNormal(10, 11440, rng)
		p := make([]float64, 11440)
		for i := range p {
			p[i] = rng.Float64() + 0.5
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulNTWeighted(yp, cp, p)
		}
	})
}

// naiveMulRows is the pre-blocking ikj loop of Mul, serial like the other
// naive references (naiveMul in matrix_test.go is the O(n³) At/Set triple
// loop, which would overstate the blocked kernel's advantage).
func naiveMulRows(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}
