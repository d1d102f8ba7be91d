package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"github.com/symprop/symprop/internal/dense"
)

// IdxIter regenerates the index-iteration analysis of paper §VI-B.4: one
// step of the symmetric outer product (Algorithm 1) on tensors of order 2
// to 14 with ranks 3 to 8, comparing the generated-loop-nest approach (the
// metaprogramming analog) against the boundary-trace index-mapping method
// of Ballard et al. [16], plus the recursive-closure middle ground. The
// paper reports a geometric-mean speedup of 1.54x for metaprogramming over
// index mapping. A fourth column times the same term in the colex layout
// the lattice interpreter stores its K tensors in: dense.ColexNode on one
// edge, rank contiguous axpys that write the term rather than add it.
func IdxIter(w io.Writer, p Profile) error {
	maxOrder := 14
	ranks := []int{3, 4, 5, 6, 7, 8}
	if p == ProfileTest {
		maxOrder = 5
		ranks = []int{3, 4}
	}
	fmt.Fprintf(w, "Index iteration analysis (orders 2-%d, ranks %v, profile=%s)\n\n", maxOrder, ranks, p)

	var rows [][]string
	var logSumVsMapped, logSumVsRec, logSumColex float64
	var count int
	rng := rand.New(rand.NewSource(7))
	for order := 2; order <= maxOrder; order++ {
		for _, r := range ranks {
			size := dense.Count(order, r)
			if size > 5_000_000 {
				continue // keep buffer sizes sane at high order x rank
			}
			src := make([]float64, dense.Count(order-1, r))
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			u := make([]float64, r)
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			dst := make([]float64, size)
			off := dense.ColexOffsets(order, r)
			srcs, us := [][]float64{src}, [][]float64{u}

			// Calibrate iterations so each variant runs ~2ms in quick mode.
			iters := calibrate(func() { dense.OuterAccum(order, dst, src, u, r) }, p)
			gen := timeKernel(iters, func() { dense.OuterAccum(order, dst, src, u, r) })
			mapped := timeKernel(iters, func() { dense.OuterAccumIndexMapped(order, dst, src, u, r) })
			rec := timeKernel(iters, func() { dense.OuterAccumRecursive(order, dst, src, u, r) })
			colex := timeKernel(iters, func() { dense.ColexNode(dst, off, srcs, us) })

			rows = append(rows, []string{
				fmt.Sprint(order), fmt.Sprint(r),
				fmt.Sprintf("%.0fns", gen), fmt.Sprintf("%.0fns", mapped), fmt.Sprintf("%.0fns", rec),
				fmt.Sprintf("%.0fns", colex),
				fmt.Sprintf("%.2fx", mapped/gen), fmt.Sprintf("%.2fx", rec/gen), fmt.Sprintf("%.2fx", gen/colex),
			})
			logSumVsMapped += math.Log(mapped / gen)
			logSumVsRec += math.Log(rec / gen)
			logSumColex += math.Log(gen / colex)
			count++
		}
	}
	table(w, []string{"order", "rank", "generated", "index-mapped", "recursive", "colex",
		"vs mapped", "vs recursive", "colex vs generated"}, rows)
	fmt.Fprintf(w, "\ngeometric mean speedup: generated vs index-mapped %.2fx (paper: 1.54x), vs recursive %.2fx\n",
		math.Exp(logSumVsMapped/float64(count)), math.Exp(logSumVsRec/float64(count)))
	fmt.Fprintf(w, "geometric mean speedup: colex blocks vs generated %.2fx\n", math.Exp(logSumColex/float64(count)))
	return nil
}

// calibrate picks an iteration count that makes one timed batch last about
// 2ms (quick) or 20ms (paper profile), echoing Google Benchmark's
// auto-calibration (paper footnote 4).
func calibrate(f func(), p Profile) int {
	target := 2 * time.Millisecond
	if p == ProfilePaper {
		target = 20 * time.Millisecond
	}
	start := time.Now()
	f()
	once := time.Since(start)
	if once <= 0 {
		once = time.Nanosecond
	}
	iters := int(target / once)
	if iters < 3 {
		iters = 3
	}
	if iters > 1_000_000 {
		iters = 1_000_000
	}
	return iters
}

// timeKernel returns mean nanoseconds per call over iters calls.
func timeKernel(iters int, f func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}
