package linalg

import (
	"runtime"
	"sync/atomic"

	"github.com/symprop/symprop/internal/exec"
)

// The dense products run in parallel only as execution-engine plans
// (internal/exec) under a caller's exec.Config: RunRows and the Run*
// products get the run's worker count, pool, cancellation, plan-scoped
// fault sites, panic capture and per-plan metrics. The one-call products
// walk the same rows on the calling goroutine, as QRThin and SymEig do.

// rowsFunc runs rows(lo, hi) over the output rows [0, n): the one thing a
// one-call product and its Run* twin do differently.
type rowsFunc func(n int, rows func(lo, hi int)) error

// serialRows is the one-call products' rowsFunc. It returns no error.
func serialRows(n int, rows func(lo, hi int)) error {
	rows(0, n)
	return nil
}

// planRows is RunRows under cfg as a rowsFunc.
func planRows(cfg exec.Config, name string) rowsFunc {
	return func(n int, rows func(lo, hi int)) error { return RunRows(cfg, name, n, rows) }
}

// rowBlock is the row granularity of the dense plans: a worker ticks
// (polls for cancellation and fires the fault sites) once per rowBlock
// output rows, and a Gram's workers claim rowBlock-row tiles.
const rowBlock = 8

// RunRows runs rows(lo, hi) over the output rows [0, n) as plan name under
// cfg: one contiguous band per worker, walked in rowBlock-row blocks with
// one Tick each, so a cancel lands within one small block of dense work.
// When each row's result does not depend on the block it falls in, the
// plan gives the same bits at every worker count.
func RunRows(cfg exec.Config, name string, n int, rows func(lo, hi int)) error {
	return exec.Run(cfg, exec.Plan{
		Name:       name,
		Items:      n,
		CheckEvery: 1,
		Body: func(w *exec.Worker, lo, hi int) error {
			for r0 := lo; r0 < hi; r0 += rowBlock {
				if err := w.Tick(r0); err != nil {
					return err
				}
				rows(r0, min(r0+rowBlock, hi))
			}
			return nil
		},
	})
}

// runTiles is RunRows for rows of unequal cost, such as a Gram triangle's:
// the slots of a PerWorker plan claim rowBlock-row tiles off a shared
// cursor until [0, n) is drained, ticking once per tile. Which slot takes
// which tile decides only where a row is computed, never its bits.
func runTiles(cfg exec.Config, name string, n int, rows func(lo, hi int)) error {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cursor atomic.Int64
	return exec.Run(cfg, exec.Plan{
		Name:       name,
		Partition:  exec.PerWorker,
		Workers:    min(workers, (n+rowBlock-1)/rowBlock),
		CheckEvery: 1,
		Body: func(w *exec.Worker, _, _ int) error {
			for {
				lo := int(cursor.Add(rowBlock)) - rowBlock
				if lo >= n {
					return nil
				}
				if err := w.Tick(lo); err != nil {
					return err
				}
				rows(lo, min(lo+rowBlock, n))
			}
		},
	})
}
