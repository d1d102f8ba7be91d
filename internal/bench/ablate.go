package bench

import (
	"fmt"
	"io"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/tucker"
)

// Ablate runs the design-choice ablations DESIGN.md calls out, beyond the
// paper's own figures. They keep their numbers from when Ablation 1, the
// S³TTMc iteration strategy end to end, was among them; the §VI-B.4
// comparison it repeated is E12's (symprop-bench idxiter).
//
//  2. kernel memoization: HOQRI-SymProp vs the original HOQRI n-ary
//     contraction (Table II rows 3/4 made executable);
//  3. intermediate storage: HOOI-SymProp vs HOOI-CSS (Table II rows 1/2);
//  4. dense layout: the compact linear layout vs BCSS;
//  5. HOOI SVD strategy: exact SVD vs the matrix-free HOOIRandomized.
func Ablate(w io.Writer, p Profile) error {
	if err := ablateNary(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ablateHOOIKernel(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ablateBCSS(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return ablateRandomizedHOOI(w, p)
}

// ablateRandomizedHOOI compares faithful HOOI (exact SVD over the full
// unfolding) against the extension HOOIRandomized (matrix-free subspace
// SVD): same error level, no memory cliff.
func ablateRandomizedHOOI(w io.Writer, p Profile) error {
	spec, err := lookupIn(p.Datasets(), "contact-school")
	if err != nil {
		return err
	}
	x, err := spec.GenerateTensor(79)
	if err != nil {
		return err
	}
	iters := p.TuckerIters()
	fmt.Fprintf(w, "Ablation 5: HOOI SVD strategy on %s (order=%d rank=%d, %d iterations)\n\n",
		spec.Name, spec.Order, spec.Rank, iters)
	mExact, rExact := tuckerRun(tucker.HOOI, x, spec.Rank, iters)
	mRand, rRand := tuckerRun(tucker.HOOIRandomized, x, spec.Rank, iters)
	errOf := func(r *tucker.Result) string {
		if r == nil {
			return "-"
		}
		return fmt.Sprintf("%.6f", r.FinalRelError())
	}
	table(w, []string{"variant", "time", "final rel. error"}, [][]string{
		{"HOOI (exact SVD, full unfolding)", mExact.Format(), errOf(rExact)},
		{"HOOIRandomized (matrix-free subspace)", mRand.Format(), errOf(rRand)},
	})
	// The memory story: a walmart-scale shape where exact HOOI cannot fit.
	big, err := lookupIn(p.Datasets(), "walmart-trips")
	if err != nil {
		return err
	}
	bx, err := big.GenerateTensor(80)
	if err != nil {
		return err
	}
	shortIters := 2
	if p == ProfileTest {
		shortIters = 1
	}
	mBigExact, _ := tuckerRun(tucker.HOOI, bx, big.Rank, shortIters)
	mBigRand, _ := tuckerRun(tucker.HOOIRandomized, bx, big.Rank, shortIters)
	fmt.Fprintf(w, "\non %s (%d iterations): exact HOOI %s, randomized %s — the randomized\n",
		big.Name, shortIters, mBigExact.Format(), mBigRand.Format())
	fmt.Fprintln(w, "variant runs where the full I x R^{N-1} unfolding cannot exist.")
	return nil
}

// ablateBCSS compares the exactly compact linear layout against the
// blocked-padded BCSS layout of Schatz et al. [15] on the symmetric outer
// product — the storage-design alternative discussed in the paper's
// related work (§VII).
func ablateBCSS(w io.Writer, p Profile) error {
	order, dim := 4, 24
	if p == ProfileTest {
		dim = 8
	}
	reps := 20000
	if p == ProfileTest {
		reps = 200
	}
	fmt.Fprintf(w, "Ablation 4: dense layout — compact linear vs BCSS (order=%d, R=%d, one Algorithm-1 term x %d)\n\n", order, dim, reps)
	src := make([]float64, dense.Count(order-1, dim))
	u := make([]float64, dim)
	for i := range src {
		src[i] = float64(i%7) * 0.25
	}
	for i := range u {
		u[i] = float64(i%5) * 0.5
	}
	dst := make([]float64, dense.Count(order, dim))
	mCompact := timeOp(1, func() error {
		for rep := 0; rep < reps; rep++ {
			dense.OuterAccum(order, dst, src, u, dim)
		}
		return nil
	})
	var rows [][]string
	rows = append(rows, []string{"compact linear", "1.00x storage", mCompact.Format(), "-"})
	for _, block := range []int{2, 4, 8} {
		if dim%block != 0 {
			continue
		}
		dstL, err := dense.NewBCSS(order, dim, block)
		if err != nil {
			return err
		}
		srcL, err := dense.NewBCSS(order-1, dim, block)
		if err != nil {
			return err
		}
		bSrc := srcL.FromCompact(src)
		bDst := make([]float64, dstL.Size())
		m := timeOp(1, func() error {
			for rep := 0; rep < reps; rep++ {
				dense.OuterAccumBCSS(dstL, srcL, bDst, bSrc, u)
			}
			return nil
		})
		rows = append(rows, []string{
			fmt.Sprintf("BCSS block=%d", block),
			fmt.Sprintf("%.2fx storage", dstL.Overhead()),
			m.Format(), speedup(m, mCompact),
		})
	}
	table(w, []string{"layout", "padding", "time", "compact speedup"}, rows)
	fmt.Fprintln(w, "\nexpected shape: BCSS pays growing padding (storage and flops) as blocks widen; compact linear does exact work.")
	return nil
}

func ablateNary(w io.Writer, p Profile) error {
	// The n-ary kernel pays O(R^N·N!·unnz) per sweep, so this ablation runs
	// a deliberately small configuration: a low-order contact-school slice
	// at a modest rank for two sweeps — enough to expose the memoization
	// gap without hour-long runs.
	spec, err := lookupIn(p.Datasets(), "contact-school")
	if err != nil {
		return err
	}
	rank := spec.Rank
	if rank > 6 {
		rank = 6
	}
	iters := 2
	if p == ProfileTest {
		iters = 1
	}
	x, err := spec.GenerateTensor(73)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation 2: HOQRI kernel memoization on %s (order=%d rank=%d, %d iterations)\n\n",
		spec.Name, spec.Order, rank, iters)
	mSP, _ := tuckerRun(tucker.HOQRI, x, rank, iters)
	mNary, _ := tuckerRun(tucker.HOQRINary, x, rank, iters)
	table(w, []string{"variant", "time", "SymProp speedup"}, [][]string{
		{"HOQRI-SymProp (memoized, compact)", mSP.Format(), "-"},
		{"HOQRI n-ary [14] (no memoization)", mNary.Format(), speedup(mNary, mSP)},
	})
	return nil
}

func ablateHOOIKernel(w io.Writer, p Profile) error {
	spec, err := lookupIn(p.Datasets(), "7D")
	if err != nil {
		return err
	}
	x, err := spec.GenerateTensor(74)
	if err != nil {
		return err
	}
	iters := p.TuckerIters()
	fmt.Fprintf(w, "Ablation 3: HOOI intermediate storage on %s (order=%d rank=%d, %d iterations)\n\n",
		spec.Name, spec.Order, spec.Rank, iters)
	mSP, _ := tuckerRun(tucker.HOOI, x, spec.Rank, iters)
	mCSS, _ := tuckerRun(tucker.HOOICSS, x, spec.Rank, iters)
	table(w, []string{"variant", "time", "SymProp speedup"}, [][]string{
		{"HOOI-SymProp (compact intermediates)", mSP.Format(), "-"},
		{"HOOI-CSS (full intermediates)", mCSS.Format(), speedup(mCSS, mSP)},
	})
	return nil
}
