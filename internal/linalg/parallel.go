package linalg

import (
	"runtime"

	"github.com/symprop/symprop/internal/exec"
)

// The ParallelFor family is a thin shim over the execution engine's bare
// fan-out primitives (internal/exec). linalg keeps these names because its
// dense routines (GEMM, QR) are leaf math with no cancellation or
// fault-injection surface of their own; kernel loops instead run as
// exec.Run plans, which own context polling, panic capture, and the
// faultinject sites. The shims pass a nil pool — transient goroutines —
// since dense calls are either already inside an engine worker or on
// driver paths where spawn cost is negligible.

// ParallelFor splits [0, n) into contiguous chunks and runs body(lo, hi) on
// up to GOMAXPROCS goroutines. Every compute-heavy dense loop in this
// module parallelizes through this helper so that the thread-scaling
// experiments (paper Fig. 6) are controlled by a single knob:
// runtime.GOMAXPROCS.
func ParallelFor(n int, body func(lo, hi int)) {
	exec.For(nil, n, runtime.GOMAXPROCS(0), body)
}

// ParallelChunks runs body over [0, n) with dynamic scheduling: workers
// repeatedly claim fixed-size contiguous chunks from an atomic cursor until
// the range is exhausted. Unlike ParallelFor's static split, this
// balances workloads whose per-item cost varies — the goroutine analog of
// OpenMP's schedule(dynamic, chunk).
func ParallelChunks(n, workers, chunk int, body func(lo, hi int)) {
	exec.Chunks(nil, n, workers, chunk, body)
}
