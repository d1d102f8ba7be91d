package kernels

import (
	"math"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// FuzzKernelEquivalence drives the cross-implementation oracle from fuzzed
// shape parameters: for any small random tensor, SymProp (expanded), CSS
// and UCOO must agree bit-for-bit within floating-point tolerance, and the
// default SymProp dispatch must be bitwise equal to the interpreter alone
// (noFusion) whether the (order, rank) pair hits a generated kernel or
// falls back. The generic path's colex evaluator must in turn be bitwise
// equal to the lex loop nest (lexWalk).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(3), uint8(10))
	f.Add(int64(2), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(6), uint8(4), uint8(2), uint8(8))
	// Fused-grid hits: order 3 rank 2, order 5 rank 4.
	f.Add(int64(4), uint8(1), uint8(5), uint8(1), uint8(9))
	f.Add(int64(5), uint8(3), uint8(5), uint8(3), uint8(7))
	// Dispatch-table fallback: order 6 is off the fused grid at any rank.
	f.Add(int64(6), uint8(4), uint8(5), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, orderB, dimB, rankB, nnzB uint8) {
		order := 2 + int(orderB)%5 // 2..6
		dim := 1 + int(dimB)%6     // 1..6
		rank := 1 + int(rankB)%4   // 1..4
		nnz := 1 + int(nnzB)%12    // 1..12
		x, err := spsym.Random(spsym.RandomOptions{
			Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal,
		})
		if err != nil {
			t.Skip()
		}
		u := linalg.RandomNormal(dim, rank, rand.New(rand.NewSource(seed+1)))

		yp, err := S3TTMcSymProp(x, u, Options{})
		if err != nil {
			t.Fatalf("SymProp: %v", err)
		}
		generic, err := S3TTMcSymProp(x, u, Options{noFusion: true})
		if err != nil {
			t.Fatalf("SymProp generic: %v", err)
		}
		lex, err := S3TTMcSymProp(x, u, Options{lexWalk: true})
		if err != nil {
			t.Fatalf("SymProp lex walk: %v", err)
		}
		for i := range yp.Data {
			if math.Float64bits(yp.Data[i]) != math.Float64bits(generic.Data[i]) {
				t.Fatalf("fused vs generic differ at %d: %v vs %v (N=%d I=%d R=%d nnz=%d)",
					i, yp.Data[i], generic.Data[i], order, dim, rank, nnz)
			}
			if math.Float64bits(generic.Data[i]) != math.Float64bits(lex.Data[i]) {
				t.Fatalf("colex vs lex walk differ at %d: %v vs %v (N=%d I=%d R=%d nnz=%d)",
					i, generic.Data[i], lex.Data[i], order, dim, rank, nnz)
			}
		}
		sp := ExpandCompactColumns(yp, order, rank)
		cssY, err := S3TTMcCSS(x, u, Options{})
		if err != nil {
			t.Fatalf("CSS: %v", err)
		}
		ucooY, err := S3TTMcUCOO(x, u, Options{})
		if err != nil {
			t.Fatalf("UCOO: %v", err)
		}
		scale := 1.0
		for _, v := range sp.Data {
			if v > scale {
				scale = v
			} else if -v > scale {
				scale = -v
			}
		}
		if d := linalg.MaxAbsDiff(sp, cssY); d > 1e-9*scale {
			t.Fatalf("SymProp vs CSS deviate by %g (N=%d I=%d R=%d nnz=%d)", d, order, dim, rank, nnz)
		}
		if d := linalg.MaxAbsDiff(sp, ucooY); d > 1e-9*scale {
			t.Fatalf("SymProp vs UCOO deviate by %g (N=%d I=%d R=%d nnz=%d)", d, order, dim, rank, nnz)
		}
	})
}
