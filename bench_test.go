package symprop

// This file holds the testing.B counterparts of the paper's evaluation
// (§VI): one benchmark family per table/figure. The text-report harness
// with the paper's exact dataset mixes lives in cmd/symprop-bench; these
// benchmarks use compact fixed workloads so `go test -bench=.` finishes in
// minutes while still exposing every comparison the paper draws.
//
// Mapping (see DESIGN.md §5 and EXPERIMENTS.md):
//
//	Fig. 4  -> BenchmarkFig4Operations
//	Fig. 5a -> BenchmarkFig5Rank       Fig. 5b -> BenchmarkFig5Order
//	Fig. 5c -> BenchmarkFig5NNZ       Fig. 5d -> BenchmarkFig5Dim
//	Fig. 6  -> BenchmarkFig6Threads
//	Fig. 7  -> BenchmarkFig7Tucker
//	Fig. 8  -> BenchmarkFig8Phases
//	Fig. 9  -> BenchmarkFig9Convergence (cost per traced sweep)
//	Tab. II -> BenchmarkTable2Kernels (model-predicted scaling points)
//	§VI-B.4 -> BenchmarkIndexIteration

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

func benchTensor(b *testing.B, order, dim, nnz int, seed int64) *spsym.Tensor {
	b.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return x
}

func benchU(dim, rank int, seed int64) *linalg.Matrix {
	return linalg.RandomNormal(dim, rank, rand.New(rand.NewSource(seed)))
}

// --- Fig. 4: operation comparison on representative Table III shapes -----

func BenchmarkFig4Operations(b *testing.B) {
	cases := []struct {
		name               string
		order, dim, nnz, r int
	}{
		{"contact-school-like/order5-rank12", 5, 245, 2000, 12},
		{"7D-like/order7-rank3", 7, 200, 2000, 3},
		{"walmart-like/order8-rank10", 8, 500, 500, 10},
		{"10D-like/order10-rank5", 10, 200, 200, 5},
	}
	for _, c := range cases {
		x := benchTensor(b, c.order, c.dim, c.nnz, 1)
		u := benchU(c.dim, c.r, 2)
		b.Run("SymProp/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("SymPropTC/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcTC(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The CSS and SPLATT baselines explode combinatorially; bench them
		// only where a single run stays under a second.
		if c.order <= 8 && c.r <= 5 {
			b.Run("CSS/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := kernels.S3TTMcCSS(x, u, kernels.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if c.order <= 7 {
			splatt, err := kernels.NewSPLATT(x, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("SPLATT/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := splatt.TTMc(u, kernels.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 5 sweeps: one parameter varies, SymProp vs CSS -----------------

func BenchmarkFig5Rank(b *testing.B) {
	x := benchTensor(b, 7, 100, 1000, 3)
	for _, r := range []int{2, 4, 6, 8, 12} {
		u := benchU(100, r, 4)
		b.Run(fmt.Sprintf("SymProp/rank%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if r <= 6 {
			b.Run(fmt.Sprintf("CSS/rank%d", r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := kernels.S3TTMcCSS(x, u, kernels.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig5Order(b *testing.B) {
	for _, order := range []int{4, 6, 8, 10, 12, 14} {
		x := benchTensor(b, order, 100, 500, 5)
		u := benchU(100, 4, 6)
		b.Run(fmt.Sprintf("SymProp/order%d", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if order <= 8 {
			b.Run(fmt.Sprintf("CSS/order%d", order), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := kernels.S3TTMcCSS(x, u, kernels.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig5NNZ(b *testing.B) {
	u := benchU(200, 4, 8)
	for _, nnz := range []int{500, 1000, 2000, 4000} {
		x := benchTensor(b, 7, 200, nnz, 7)
		b.Run(fmt.Sprintf("SymProp/nnz%d", nnz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5Dim(b *testing.B) {
	for _, dim := range []int{50, 100, 200, 400, 800} {
		x := benchTensor(b, 7, dim, 1000, 9)
		u := benchU(dim, 4, 10)
		b.Run(fmt.Sprintf("SymProp/dim%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SymPropTC/dim%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcTC(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 6: thread scalability ------------------------------------------

func BenchmarkFig6Threads(b *testing.B) {
	x := benchTensor(b, 8, 500, 1000, 11)
	u := benchU(500, 6, 12)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 7: HOOI vs HOQRI end-to-end -------------------------------------

func BenchmarkFig7Tucker(b *testing.B) {
	cases := []struct {
		name               string
		order, dim, nnz, r int
	}{
		{"low-order", 3, 100, 1000, 4},
		{"mid-order", 5, 150, 800, 6},
		{"high-order", 8, 200, 300, 4},
	}
	for _, c := range cases {
		x := benchTensor(b, c.order, c.dim, c.nnz, 13)
		b.Run("HOOI/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tucker.HOOI(x, tucker.Options{Rank: c.r, MaxIters: 3, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("HOQRI/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tucker.HOQRI(x, tucker.Options{Rank: c.r, MaxIters: 3, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 8: phase costs in isolation --------------------------------------

func BenchmarkFig8Phases(b *testing.B) {
	x := benchTensor(b, 5, 300, 1500, 15)
	const r = 8
	u := benchU(300, r, 16)
	yp, err := kernels.S3TTMcSymProp(x, u, kernels.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TTMc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TimesCore", func(b *testing.B) {
		p := kernels.PermCounts(x.Order-1, r)
		for i := 0; i < b.N; i++ {
			cp := linalg.MulTN(u, yp)
			_ = linalg.MulNTWeighted(yp, cp, p)
		}
	})
	b.Run("SVDViaGram", func(b *testing.B) {
		full := kernels.ExpandCompactColumns(yp, x.Order, r)
		for i := 0; i < b.N; i++ {
			g := linalg.MulNT(full, full)
			if _, err := linalg.TopEigenvectors(g, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QR", func(b *testing.B) {
		p := kernels.PermCounts(x.Order-1, r)
		cp := linalg.MulTN(u, yp)
		a := linalg.MulNTWeighted(yp, cp, p)
		for i := 0; i < b.N; i++ {
			linalg.QRThin(a)
		}
	})
}

// --- Fig. 9: per-sweep cost of the convergence traces ---------------------

func BenchmarkFig9Convergence(b *testing.B) {
	x := benchTensor(b, 5, 245, 1500, 17)
	for _, algo := range []struct {
		name string
		run  func(*spsym.Tensor, tucker.Options) (*tucker.Result, error)
	}{
		{"HOOI", tucker.HOOI},
		{"HOQRI", tucker.HOQRI},
	} {
		b.Run(algo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.run(x, tucker.Options{Rank: 6, MaxIters: 5, Seed: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table II: measured kernel cost at model-predicted scaling points -----

func BenchmarkTable2Kernels(b *testing.B) {
	// The model predicts SP/CSS flop ratios; measure both kernels at the
	// same shape so the report can compare measured vs predicted scaling.
	x := benchTensor(b, 6, 100, 500, 19)
	for _, r := range []int{2, 4, 6} {
		u := benchU(100, r, 20)
		b.Run(fmt.Sprintf("SymProp/rank%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CSS/rank%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernels.S3TTMcCSS(x, u, kernels.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §VI-B.4: index-iteration ablation ------------------------------------

func BenchmarkIndexIteration(b *testing.B) {
	for _, c := range []struct{ order, rank int }{
		{4, 8}, {8, 5}, {12, 4},
	} {
		src := make([]float64, dense.Count(c.order-1, c.rank))
		dst := make([]float64, dense.Count(c.order, c.rank))
		u := make([]float64, c.rank)
		rng := rand.New(rand.NewSource(21))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		name := fmt.Sprintf("order%d-rank%d", c.order, c.rank)
		b.Run("Generated/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.OuterAccum(c.order, dst, src, u, c.rank)
			}
		})
		b.Run("IndexMapped/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.OuterAccumIndexMapped(c.order, dst, src, u, c.rank)
			}
		})
		b.Run("Recursive/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.OuterAccumRecursive(c.order, dst, src, u, c.rank)
			}
		})
	}
}

// --- Related-work storage ablation: compact linear vs BCSS ----------------

func BenchmarkBCSSLayout(b *testing.B) {
	const order, dim = 4, 24
	src := make([]float64, dense.Count(order-1, dim))
	dst := make([]float64, dense.Count(order, dim))
	u := make([]float64, dim)
	rng := rand.New(rand.NewSource(23))
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	b.Run("CompactLinear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dense.OuterAccum(order, dst, src, u, dim)
		}
	})
	for _, block := range []int{2, 4, 8} {
		dstL, err := dense.NewBCSS(order, dim, block)
		if err != nil {
			b.Fatal(err)
		}
		srcL, err := dense.NewBCSS(order-1, dim, block)
		if err != nil {
			b.Fatal(err)
		}
		bSrc := srcL.FromCompact(src)
		bDst := make([]float64, dstL.Size())
		b.Run(fmt.Sprintf("BCSS/block%d", block), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.OuterAccumBCSS(dstL, srcL, bDst, bSrc, u)
			}
		})
	}
}

// --- UCOO baseline (format comparison completeness) ------------------------

func BenchmarkUCOOBaseline(b *testing.B) {
	x := benchTensor(b, 4, 50, 200, 25)
	u := benchU(50, 4, 26)
	b.Run("UCOO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kernels.S3TTMcUCOO(x, u, kernels.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SymProp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
