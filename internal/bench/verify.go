package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// Verify runs the cross-implementation equivalence gate from the command
// line: on each trial it draws a random small symmetric tensor and factor,
// computes the chain product with brute-force permutation expansion, and
// checks that every kernel in the repository — SymProp (all three iteration
// strategies), CSS, UCOO, SPLATT, and the n-ary TTMcTC — agrees to within
// floating-point tolerance. This is the same oracle the unit tests use,
// exposed so users can gate their own builds or configurations.
func Verify(w io.Writer, trials int, seed int64) error {
	if trials < 1 {
		trials = 20
	}
	rng := rand.New(rand.NewSource(seed))
	const tol = 1e-8
	fmt.Fprintf(w, "Cross-implementation verification: %d randomized trials (seed %d)\n\n", trials, seed)

	for trial := 0; trial < trials; trial++ {
		order := 2 + rng.Intn(5)
		dim := 2 + rng.Intn(6)
		r := 1 + rng.Intn(4)
		nnz := 1 + rng.Intn(18)
		x, err := spsym.Random(spsym.RandomOptions{
			Order: order, Dim: dim, NNZ: nnz, Seed: rng.Int63(), Values: spsym.ValueNormal,
		})
		if err != nil {
			return err
		}
		u := linalg.RandomNormal(dim, r, rng)
		want := expandedReference(x, u)

		scaleOf := func(m *linalg.Matrix) float64 {
			s := 1.0
			for _, v := range m.Data {
				if a := math.Abs(v); a > s {
					s = a
				}
			}
			return s
		}
		check := func(name string, got *linalg.Matrix) error {
			if got.Rows != want.Rows || got.Cols != want.Cols {
				return fmt.Errorf("trial %d (N=%d I=%d R=%d nnz=%d): %s shape %dx%d, want %dx%d",
					trial, order, dim, r, nnz, name, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			if d := linalg.MaxAbsDiff(got, want); d > tol*scaleOf(want) {
				return fmt.Errorf("trial %d (N=%d I=%d R=%d nnz=%d): %s deviates by %g",
					trial, order, dim, r, nnz, name, d)
			}
			return nil
		}

		// Every scatter kernel runs with multiple workers, so the
		// owner-computes scheduler is held to the oracle.
		opts := kernels.Options{Workers: 2}
		for _, strat := range []struct {
			name string
			iter kernels.IterationStrategy
		}{
			{"SymProp/generated", kernels.IterGenerated},
			{"SymProp/recursive", kernels.IterRecursive},
			{"SymProp/index-mapped", kernels.IterIndexMapped},
		} {
			sopts := opts
			sopts.Iteration = strat.iter
			yp, err := kernels.S3TTMcSymProp(x, u, sopts)
			if err != nil {
				return fmt.Errorf("trial %d: %s: %w", trial, strat.name, err)
			}
			if err := check(strat.name, kernels.ExpandCompactColumns(yp, order, r)); err != nil {
				return err
			}
		}

		cssY, err := kernels.S3TTMcCSS(x, u, opts)
		if err != nil {
			return fmt.Errorf("trial %d: CSS: %w", trial, err)
		}
		if err := check("CSS", cssY); err != nil {
			return err
		}

		ucooY, err := kernels.S3TTMcUCOO(x, u, opts)
		if err != nil {
			return fmt.Errorf("trial %d: UCOO: %w", trial, err)
		}
		if err := check("UCOO", ucooY); err != nil {
			return err
		}

		splattY, err := kernels.TTMcSPLATT(x, u, kernels.Options{})
		if err != nil {
			return fmt.Errorf("trial %d: SPLATT: %w", trial, err)
		}
		if err := check("SPLATT", splattY); err != nil {
			return err
		}

		// TTMcTC agreement: SymProp vs n-ary on A, with a multi-worker
		// n-ary scatter pass.
		sp, err := kernels.S3TTMcTC(x, u, kernels.Options{})
		if err != nil {
			return fmt.Errorf("trial %d: S3TTMcTC: %w", trial, err)
		}
		nary, err := kernels.NaryTTMcTC(x, u, opts)
		if err != nil {
			return fmt.Errorf("trial %d: NaryTTMcTC: %w", trial, err)
		}
		if d := linalg.MaxAbsDiff(sp.A, nary.A); d > tol*scaleOf(sp.A) {
			return fmt.Errorf("trial %d: TTMcTC A matrices deviate by %g", trial, d)
		}
		if a, b := sp.CoreNormSquared(), nary.CoreNormSquared(); math.Abs(a-b) > tol*(1+math.Abs(a)) {
			return fmt.Errorf("trial %d: core norms deviate: %g vs %g", trial, a, b)
		}
	}
	fmt.Fprintf(w, "PASS: all kernels agree with brute-force expansion on %d trials\n", trials)
	return nil
}

// expandedReference computes the full Y(1) by brute force from the
// expanded non-zeros — the ground truth of paper Eq. (3).
func expandedReference(x *spsym.Tensor, u *linalg.Matrix) *linalg.Matrix {
	r := u.Cols
	n := x.Order
	outCols := int(dense.Pow64(int64(r), n-1))
	y := linalg.NewMatrix(x.Dim, outCols)
	rIdx := make([]int, n-1)
	x.ForEachExpanded(func(tuple []int32, val float64) {
		row := y.Row(int(tuple[0]))
		for i := range rIdx {
			rIdx[i] = 0
		}
		for lin := 0; lin < outCols; lin++ {
			p := val
			for a := 0; a < n-1; a++ {
				p *= u.At(int(tuple[a+1]), rIdx[a])
			}
			row[lin] += p
			for a := n - 2; a >= 0; a-- {
				rIdx[a]++
				if rIdx[a] < r {
					break
				}
				rIdx[a] = 0
			}
		}
	})
	return y
}
