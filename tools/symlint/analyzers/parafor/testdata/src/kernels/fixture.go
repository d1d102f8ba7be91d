// Package kernels exercises the engine-era parafor checks from inside a
// package whose import path ends in internal/kernels: the ban on direct
// linalg.ParallelFor* shim calls and the closure checks on exec.For /
// exec.Chunks bodies. exec.Plan Body/Scratch callbacks are the planrace
// analyzer's territory and are not checked here.
package kernels

import (
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
)

// badShimCall routes a kernel loop through the linalg shim instead of the
// engine; the call itself is the defect, independent of the body.
func badShimCall(n int, out []float64) {
	linalg.ParallelFor(n, func(lo, hi int) { // want `kernel package calls linalg.ParallelFor directly`
		for i := lo; i < hi; i++ {
			out[i] = 1
		}
	})
}

// blessedShimCall carries a justified suppression, e.g. cold-path setup
// code that predates the engine.
func blessedShimCall(n int, out []float64) {
	//symlint:nosync cold path, no cancellation needed
	linalg.ParallelChunks(n, 4, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = 1
		}
	})
}

// badEngineScalar races on a captured accumulator inside the engine's bare
// static fan-out — the same contract as the old shims.
func badEngineScalar(xs []float64) float64 {
	sum := 0.0
	exec.For(nil, len(xs), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `assigns to captured variable sum`
		}
	})
	return sum
}

// badEngineChunksFixedIndex hits one element from every dynamic chunk.
func badEngineChunksFixedIndex(out []float64) {
	exec.Chunks(nil, 64, 4, 16, func(lo, hi int) {
		out[0]++ // want `index that never varies`
	})
}

// goodEngineFor writes only chunk-derived indices.
func goodEngineFor(xs, out []float64) {
	exec.For(nil, len(xs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = 2 * xs[i]
		}
	})
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
