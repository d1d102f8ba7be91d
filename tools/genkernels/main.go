// Command genkernels emits internal/kernels/fused_gen.go: fused S³TTMc
// inner kernels specialized per (order, rank) — the codegen-v2 layer on
// top of tools/geniterate (unrolled compact-layout loop nests). Where the
// generic lattice interpreter keeps the rank a run-time parameter and
// dispatches each outer product through dense.OuterAccum, the fused
// kernels bake the rank into the
// code: for each supported (order N, rank R) pair one function computes
// every top-level K tensor of the all-distinct lattice in a single pass,
// with
//
//   - U rows aliased directly (no level-1 copies),
//   - intermediate K tensors held in fixed-size stack arrays,
//   - every outer-product accumulation either fully unrolled to
//     constant-index statements (small compact counts) or emitted as a
//     constant-bound loop nest (larger counts), and
//   - the multinomial permutation-count vectors of the matching compact
//     layouts baked as constant tables (paper Property 3).
//
// Bit-for-bit identity with the generic lattice interpreter is a
// hard requirement (the determinism matrix and the differential tests in
// fused_test.go enforce it), so the emitted code preserves the exact
// floating-point evaluation order of the generic path: nodes in plan
// order, edges in plan order, zero-then-accumulate per node, and the
// statement shape dst[loc] += u[j] * s everywhere.
//
// Regenerate with:
//
//	go run ./tools/genkernels > internal/kernels/fused_gen.go
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"strconv"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/dense"
)

// The specialized grid. Adding a pair here (and regenerating) is all it
// takes to extend the fused path — see docs/CODEGEN.md.
var (
	orders = []int{3, 4, 5}
	ranks  = []int{2, 4, 8}
)

// unrollLimit is the largest compact entry count S_{l,R} for which one
// edge's accumulation is fully unrolled into constant-index statements.
// Larger edges become constant-bound loop nests (the rank still a literal,
// so the compiler sees fixed trip counts): full unrolling of e.g. the
// order-5 rank-8 top level would emit ~4000 statements per node and bloat
// the instruction cache past any register-blocking win.
const unrollLimit = 64

func main() {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by tools/genkernels; DO NOT EDIT.

package kernels

import (
	"github.com/symprop/symprop/internal/linalg"
)

`)
	emitDispatch(&b)
	for _, n := range orders {
		for _, r := range ranks {
			emitKernel(&b, n, r)
		}
	}
	emitPermCounts(&b)
	os.Stdout.Write(b.Bytes())
}

func emitDispatch(b *bytes.Buffer) {
	fmt.Fprintf(b, "// fusedEvalFor returns the fused evaluator specialized for (order, r), or\n")
	fmt.Fprintf(b, "// nil when no specialization was generated (dispatch falls back to the\n")
	fmt.Fprintf(b, "// generic lattice path; see resolveFusion in fused.go).\n")
	fmt.Fprintf(b, "func fusedEvalFor(order, r int) fusedEvalFunc {\n\tswitch order {\n")
	for _, n := range orders {
		fmt.Fprintf(b, "\tcase %d:\n\t\tswitch r {\n", n)
		for _, r := range ranks {
			fmt.Fprintf(b, "\t\tcase %d:\n\t\t\treturn fusedEval_o%d_r%d\n", r, n, r)
		}
		fmt.Fprintf(b, "\t\t}\n")
	}
	fmt.Fprintf(b, "\t}\n\treturn nil\n}\n\n")
}

// nodeName returns the identifier of an intermediate lattice node: "k"
// followed by the slots present in its key (all-distinct signature, so
// every digit is 0 or 1).
func nodeName(k css.Key, slots int) string {
	s := "k"
	for t := 0; t < slots; t++ {
		if (k>>(4*t))&0xF == 1 {
			s += strconv.Itoa(t)
		}
	}
	return s
}

func emitKernel(b *bytes.Buffer, order, r int) {
	sig := make([]int, order)
	for i := range sig {
		sig[i] = 1
	}
	plan, err := css.BuildPlan(sig)
	if err != nil {
		log.Fatalf("order %d: %v", order, err)
	}
	topSize := int(dense.Count(order-1, r))
	total := order * topSize

	// slotOf inverts plan.Tops: top-level node index -> output slot.
	slotOf := make(map[int]int, order)
	for t, n := range plan.Tops {
		slotOf[n] = t
	}

	fmt.Fprintf(b, "// fusedEval_o%d_r%d: order-%d rank-%d all-distinct lattice (%d nodes) fused\n",
		order, r, order, r, plan.NumNodes())
	fmt.Fprintf(b, "// into one pass; tops holds the %d top-level compact tensors (%d entries\n",
		order, topSize)
	fmt.Fprintf(b, "// each, slot-major) and is fully overwritten.\n")
	fmt.Fprintf(b, "func fusedEval_o%d_r%d(u *linalg.Matrix, values []int32, tops []float64) {\n", order, r)
	// U-row aliases with constant length so every constant index is
	// bounds-check free.
	for t := 0; t < order; t++ {
		fmt.Fprintf(b, "\tu%d := u.Row(int(values[%d]))[:%d:%d]\n", t, t, r, r)
	}
	fmt.Fprintf(b, "\ttops = tops[:%d:%d]\n", total, total)
	fmt.Fprintf(b, "\tfor i := range tops {\n\t\ttops[i] = 0\n\t}\n")
	for t := 0; t < order; t++ {
		fmt.Fprintf(b, "\tt%d := tops[%d:%d:%d]\n", t, t*topSize, (t+1)*topSize, (t+1)*topSize)
	}
	// Intermediate levels live in zero-initialized stack arrays.
	for li := 1; li < len(plan.Levels)-1; li++ {
		size := int(dense.Count(li+1, r))
		for _, node := range plan.Levels[li] {
			fmt.Fprintf(b, "\tvar %s [%d]float64\n", nodeName(node.Key, order), size)
		}
	}
	// Accumulate level by level, node and edge in plan order — the same
	// floating-point evaluation order as the interpreter.
	for li := 1; li < len(plan.Levels); li++ {
		l := li + 1
		top := li == len(plan.Levels)-1
		for n, node := range plan.Levels[li] {
			dst := nodeName(node.Key, order)
			if top {
				dst = "t" + strconv.Itoa(slotOf[n])
			}
			for _, e := range node.Edges {
				src := nodeName(plan.Levels[li-1][e.Child].Key, order)
				if li-1 == 0 {
					src = "u" + strconv.Itoa(e.Child)
				}
				urow := "u" + strconv.Itoa(e.Slot)
				if dense.Count(l, r) <= unrollLimit {
					emitUnrolledEdge(b, l, r, dst, src, urow)
				} else {
					emitLoopedEdge(b, l, r, dst, src, urow)
				}
			}
		}
	}
	fmt.Fprintf(b, "}\n\n")
}

// emitUnrolledEdge writes one edge's accumulation as straight-line
// constant-index statements: dst[locL] += urow[j_{l-1}] * src[locP] over
// the compact order-l layout, locP ranking the (order l-1) prefix.
func emitUnrolledEdge(b *bytes.Buffer, l, r int, dst, src, urow string) {
	locL, locP := 0, 0
	var rec func(depth, start int)
	rec = func(depth, start int) {
		if depth == l-1 {
			for j := start; j < r; j++ {
				fmt.Fprintf(b, "\t%s[%d] += %s[%d] * %s[%d]\n", dst, locL, urow, j, src, locP)
				locL++
			}
			locP++
			return
		}
		for j := start; j < r; j++ {
			rec(depth+1, j)
		}
	}
	rec(0, 0)
}

// emitLoopedEdge writes one edge's accumulation as the outerAccumN loop
// nest of tools/geniterate with the rank baked in as a literal bound.
func emitLoopedEdge(b *bytes.Buffer, l, r int, dst, src, urow string) {
	fmt.Fprintf(b, "\t{\n")
	fmt.Fprintf(b, "\t\tlocL, locP := 0, 0\n")
	indent := "\t\t"
	for d := 0; d < l-1; d++ {
		start := "0"
		if d > 0 {
			start = fmt.Sprintf("j%d", d-1)
		}
		fmt.Fprintf(b, "%sfor j%d := %s; j%d < %d; j%d++ {\n", indent, d, start, d, r, d)
		indent += "\t"
	}
	fmt.Fprintf(b, "%ss := %s[locP]\n", indent, src)
	fmt.Fprintf(b, "%sfor j%d := j%d; j%d < %d; j%d++ {\n", indent, l-1, l-2, l-1, r, l-1)
	fmt.Fprintf(b, "%s\t%s[locL] += %s[j%d] * s\n", indent, dst, urow, l-1)
	fmt.Fprintf(b, "%s\tlocL++\n", indent)
	fmt.Fprintf(b, "%s}\n", indent)
	fmt.Fprintf(b, "%slocP++\n", indent)
	for d := l - 2; d >= 0; d-- {
		indent = indent[:len(indent)-1]
		fmt.Fprintf(b, "%s}\n", indent)
	}
	fmt.Fprintf(b, "\t}\n")
}

// emitPermCounts bakes the multinomial permutation-count vectors (paper
// Property 3) for the compact layouts the fused kernels produce: symmetric
// order N-1 for each specialized order N, at each specialized rank.
func emitPermCounts(b *bytes.Buffer) {
	fmt.Fprintf(b, "// fusedPermCounts returns dense.PermCounts(symOrder, r) as a baked\n")
	fmt.Fprintf(b, "// constant table for the specialized (symOrder, r) grid, or nil when the\n")
	fmt.Fprintf(b, "// pair is not baked (the caller computes it; see PermCounts in ttmctc.go).\n")
	fmt.Fprintf(b, "// The counts are small exact integers, so the baked values are bit-equal\n")
	fmt.Fprintf(b, "// to the computed ones.\n")
	fmt.Fprintf(b, "func fusedPermCounts(symOrder, r int) []float64 {\n\tswitch symOrder {\n")
	for _, n := range orders {
		sym := n - 1
		fmt.Fprintf(b, "\tcase %d:\n\t\tswitch r {\n", sym)
		for _, r := range ranks {
			pc := dense.PermCounts(sym, r)
			fmt.Fprintf(b, "\t\tcase %d:\n\t\t\treturn []float64{\n", r)
			for i := 0; i < len(pc); i += 16 {
				fmt.Fprintf(b, "\t\t\t\t")
				for j := i; j < i+16 && j < len(pc); j++ {
					fmt.Fprintf(b, "%s, ", strconv.FormatFloat(pc[j], 'g', -1, 64))
				}
				fmt.Fprintf(b, "\n")
			}
			fmt.Fprintf(b, "\t\t\t}\n")
		}
		fmt.Fprintf(b, "\t\t}\n")
	}
	fmt.Fprintf(b, "\t}\n\treturn nil\n}\n")
}
