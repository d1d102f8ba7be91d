// Package hotalloc exercises the plan-body allocation checks: per-item
// loops must not allocate; per-range and per-worker setup may.
package hotalloc

import (
	"github.com/symprop/symprop/internal/exec"
)

type node struct {
	row int
	val float64
}

type sink struct{ slot any }

// badLoopAllocs hits every allocating form inside the per-item loop.
func badLoopAllocs(xs, out []float64, s *sink) {
	_ = exec.Run(exec.Config{}, exec.Plan{
		Name:  "fixture.bad-loop-allocs",
		Items: len(xs),
		Body: func(w *exec.Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
				buf := make([]float64, 8) // want `make in plan-body loop allocates per iteration`
				p := new(node)            // want `new in plan-body loop allocates per iteration`
				q := &node{row: i}        // want `composite literal address in plan-body loop`
				var tmp []int
				tmp = append(tmp, i)  // want `append to loop-local slice tmp re-allocates every iteration`
				s.slot = node{row: i} // want `storing a .* into an interface in a plan-body loop`
				out[i] = xs[i] + buf[0] + p.val + q.val + float64(len(tmp))
			}
			return nil
		},
	})
}

// badNestedCallbackAlloc: loops inside nested function literals run just
// as hot as the loop that drives them.
func badNestedCallbackAlloc(xs, out []float64, each func(func(int))) {
	_ = exec.Run(exec.Config{}, exec.Plan{
		Name:  "fixture.bad-nested-callback",
		Items: len(xs),
		Body: func(w *exec.Worker, lo, hi int) error {
			each(func(k int) {
				for j := 0; j < k; j++ {
					scratch := make([]float64, 4) // want `make in plan-body loop allocates per iteration`
					out[j] += scratch[0]
				}
			})
			return nil
		},
	})
}

// goodPreallocated is the engine's sanctioned shape: per-range buffers at
// the top of the Body, per-worker state in Scratch, loop reuses both.
func goodPreallocated(xs, out []float64) {
	_ = exec.Run(exec.Config{}, exec.Plan{
		Name:  "fixture.good-preallocated",
		Items: len(xs),
		Scratch: func(w *exec.Worker) error {
			// Once per worker: the boxing store into w.Scratch is fine here.
			w.Scratch = make([]float64, 16)
			return nil
		},
		Body: func(w *exec.Worker, lo, hi int) error {
			kron := make([]float64, 8) // once per range: fine
			acc := w.Scratch.([]float64)
			rest := make([]int, 0, 8)
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
				rest = rest[:0]
				rest = append(rest, i) // hoisted slice grows amortized: fine
				acc[0] += xs[i] * kron[0]
				out[i] = xs[i]
			}
			return nil
		},
	})
}

// goodPointerIntoInterface: pointer-shaped values box without allocating.
func goodPointerIntoInterface(xs []float64, s *sink) {
	_ = exec.Run(exec.Config{}, exec.Plan{
		Name:  "fixture.good-pointer-box",
		Items: len(xs),
		Body: func(w *exec.Worker, lo, hi int) error {
			n := &node{}
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
				n.row = i
				s.slot = n
			}
			return nil
		},
	})
}

// suppressedAlloc documents why this cold sub-path may allocate.
func suppressedAlloc(xs, out []float64) {
	_ = exec.Run(exec.Config{}, exec.Plan{
		Name:  "fixture.suppressed-alloc",
		Items: len(xs),
		Body: func(w *exec.Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := w.Tick(i); err != nil {
					return err
				}
				if xs[i] < 0 {
					//symlint:hotalloc fixture: error path, runs at most once per plan
					detail := make([]float64, 1)
					detail[0] = xs[i]
					out[0] = detail[0]
				}
			}
			return nil
		},
	})
}
