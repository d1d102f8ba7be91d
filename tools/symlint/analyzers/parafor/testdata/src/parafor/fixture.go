// Package parafor exercises the parafor analyzer against the real
// linalg.ParallelFor helpers (imported straight from the module: go/types
// does not enforce internal-package visibility, so fixtures can link the
// genuine API).
package parafor

import (
	"sync"

	"github.com/symprop/symprop/internal/linalg"
)

// badScalar races on a captured accumulator.
func badScalar(xs []float64) float64 {
	sum := 0.0
	linalg.ParallelFor(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `assigns to captured variable sum`
		}
	})
	return sum
}

// goodChunk writes disjoint chunk-derived indices: the contract.
func goodChunk(xs, out []float64) {
	linalg.ParallelFor(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = 2 * xs[i]
		}
	})
}

// badMap mutates a captured map concurrently.
func badMap(keys []int, m map[int]int) {
	linalg.ParallelFor(len(keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m[keys[i]]++ // want `writes to captured map m`
		}
	})
}

// badFixedIndex hits the same element from every worker.
func badFixedIndex(out []float64) {
	linalg.ParallelChunks(64, 4, 16, func(lo, hi int) {
		out[0]++ // want `index that never varies`
	})
}

type stats struct{ calls int }

// badField writes a captured struct field.
func badField(s *stats, n int) {
	linalg.ParallelFor(n, func(lo, hi int) {
		s.calls++ // want `writes to field calls of captured s`
	})
}

// badPointer stores through a captured pointer.
func badPointer(p *float64, n int) {
	linalg.ParallelFor(n, func(lo, hi int) {
		*p = float64(n) // want `through captured pointer p`
	})
}

// goodMutex synchronizes visibly; the analyzer trusts the lock.
func goodMutex(xs []float64) float64 {
	var mu sync.Mutex
	total := 0.0
	linalg.ParallelFor(len(xs), func(lo, hi int) {
		local := 0.0
		for i := lo; i < hi; i++ {
			local += xs[i]
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	return total
}

// goodNosync documents a single-writer invariant with a directive.
func goodNosync(flag *bool) {
	done := false
	linalg.ParallelFor(1, func(lo, hi int) {
		done = true //symlint:nosync n==1 runs the body inline on one goroutine
	})
	*flag = done
}

// badGoCapture leaks the loop variable into a goroutine closure; the write
// index also never varies inside the closure body itself.
func badGoCapture(n int) {
	var wg sync.WaitGroup
	out := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = i // want `captures loop variable i` `index that never varies`
		}()
	}
	wg.Wait()
}

// goodGoArg passes the loop variable explicitly.
func goodGoArg(n int) {
	var wg sync.WaitGroup
	out := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i
		}(i)
	}
	wg.Wait()
}
