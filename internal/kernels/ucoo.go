package kernels

import (
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// S3TTMcUCOO is the UCOO-format baseline of Shivakumar et al. [11]: the
// input is compressed (IOU non-zeros only) but the computation is not —
// every distinct permutation of every non-zero is streamed and its full
// Kronecker chain accumulated into Y(1). No memoization between or within
// permutations: cost O(Σ_l R^l) per *expanded* non-zero, memory only for
// the output and one per-worker Kronecker scratch.
//
// It completes the format-baseline set (SPLATT/CSF, UCOO, CSS, SymProp)
// and shows where each of CSS's two memoizations pays off.
func S3TTMcUCOO(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	r := u.Cols
	cols := dense.Pow64(int64(r), x.Order-1)
	yBytes := memguard.Float64Bytes(int64(x.Dim) * cols)
	wsBytes := memguard.Float64Bytes(cols) * int64(opts.workers())
	if err := opts.Guard.Reserve(yBytes, "UCOO full Y(1)"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(yBytes)
	if err := opts.Guard.Reserve(wsBytes, "UCOO kron scratch"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)

	y := linalg.NewMatrix(x.Dim, int(cols))
	nnz := x.NNZ()
	if nnz == 0 {
		return y, nil
	}
	if exec.IsCanceled(opts.Ctx) {
		return nil, exec.Cause(opts.Ctx)
	}
	workers, release := reserveSpills(opts.Guard, y.Rows, y.Cols, min(opts.workers(), nnz))
	defer release()
	if err := ucooOwner(x, u, opts, workers, y); err != nil {
		return nil, err
	}
	if err := exec.FireOutput("ucoo", y); err != nil {
		return nil, err
	}
	return y, nil
}

// ucooOwner is the owner-computes UCOO scatter: every expanded permutation
// of a non-zero emits into the row of its first index, which ranges over
// the tuple's distinct values — the same emission pattern as the lattice
// kernels, so the same schedule (bin by leading row, spill the rest)
// applies. Each owner runs once via the engine's PerWorker partition.
func ucooOwner(x *spsym.Tensor, u *linalg.Matrix, opts Options, workers int, y *linalg.Matrix) error {
	sched := opts.Schedules.get(x, workers)
	workers = sched.workers
	spills := newSpillSet(opts.Schedules, workers, y.Rows, y.Cols)
	err := exec.Run(opts.execConfig(), exec.Plan{
		Name:      "ucoo.owner",
		Partition: exec.PerWorker,
		Workers:   workers,
		Body: func(wk *exec.Worker, w, _ int) error {
			// Per-range state: kron scratch, permutation scratch, and the
			// emission closure are all built once here so the per-non-zero
			// loop below allocates nothing (hotalloc).
			kron := make([]float64, y.Cols)
			perm := make([]int32, x.Order)
			rowLo, rowHi := sched.ownedRows(w)
			spill := spills.buffer(w)
			emit := func(idx []int32, val float64) {
				kronRows(u, idx[1:], kron)
				row := int(idx[0])
				if row >= rowLo && row < rowHi {
					dense.AxpyCompact(val, kron, y.Row(row))
				} else {
					spill.add(row, val, kron)
				}
			}
			for _, k32 := range sched.bin(w) {
				k := int(k32)
				if err := wk.Tick(k); err != nil {
					return err
				}
				x.ForEachExpandedOf(k, perm, emit)
			}
			return nil
		},
	})
	if err != nil {
		// Dirty spill buffers go to the GC, not the pool (see
		// runLatticeOwner).
		return err
	}
	return spills.reduceInto(y, workers, opts.Schedules, opts.Exec, opts.Obs)
}

// EstimateUCOOBytes returns the UCOO kernel footprint: full Y(1) plus
// per-worker Kronecker scratch.
func EstimateUCOOBytes(x *spsym.Tensor, rank, workers int) int64 {
	cols := dense.Pow64(int64(rank), x.Order-1)
	y := memguard.Float64Bytes(int64(x.Dim) * cols)
	ws := memguard.Float64Bytes(cols) * int64(workers)
	return satBytes(y, ws)
}
