// Package parafor exercises the parafor analyzer on go statement closures.
// The exec import is the module's real engine (go/types does not enforce
// internal-package visibility, so fixtures can link the genuine API): plan
// callbacks are the planrace analyzer's territory and stay silent here.
package parafor

import (
	"sync"

	"github.com/symprop/symprop/internal/exec"
)

// badScalar races on a captured accumulator.
func badScalar(xs []float64) float64 {
	var wg sync.WaitGroup
	sum := 0.0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, x := range xs {
			sum += x // want `assigns to captured variable sum`
		}
	}()
	wg.Wait()
	return sum
}

// goodHalves writes only indices derived from its arguments.
func goodHalves(xs, out []float64) {
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = 2 * xs[i]
			}
		}(h*len(xs)/2, (h+1)*len(xs)/2)
	}
	wg.Wait()
}

// badMap mutates a captured map concurrently.
func badMap(keys []int, m map[int]int) {
	done := make(chan struct{})
	go func() {
		for _, k := range keys {
			m[k]++ // want `writes to captured map m`
		}
		close(done)
	}()
	<-done
}

// badFixedIndex hits the same element from every goroutine.
func badFixedIndex(out []float64) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[0]++ // want `index that never varies`
		}()
	}
	wg.Wait()
}

type stats struct{ calls int }

// badField writes a captured struct field.
func badField(s *stats) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.calls++ // want `writes to field calls of captured s`
	}()
	wg.Wait()
}

// badPointer stores through a captured pointer.
func badPointer(p *float64, n int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		*p = float64(n) // want `through captured pointer p`
	}()
	wg.Wait()
}

// goodMutex synchronizes visibly; the analyzer trusts the lock.
func goodMutex(xs []float64) float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := 0.0
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := 0.0
			for i := lo; i < hi; i++ {
				local += xs[i]
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}(h*len(xs)/2, (h+1)*len(xs)/2)
	}
	wg.Wait()
	return total
}

// goodNosync documents a single-writer invariant with a directive.
func goodNosync(flag *bool) {
	done := false
	ch := make(chan struct{})
	go func() {
		done = true //symlint:nosync the close below orders this write before the read
		close(ch)
	}()
	<-ch
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

// planBodiesAreNotParaforTerritory: plan callbacks are checked by
// planrace, not parafor — even a racy body must stay silent here.
func planBodiesAreNotParaforTerritory(xs []float64) (float64, error) {
	sum := 0.0
	err := exec.Run(exec.Config{}, exec.Plan{
		Name:  "fixture.planrace-owns-this",
		Items: len(xs),
		Body: func(w *exec.Worker, lo, hi int) error {
			for i := lo; i < hi; i++ {
				sum += xs[i] // planrace's finding, not parafor's
			}
			return nil
		},
	})
	return sum, err
}
