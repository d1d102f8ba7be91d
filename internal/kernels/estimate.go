package kernels

import (
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// Memory-footprint estimators, exposed so the benchmark harness can
// classify a configuration as OOM from the model — exactly the annotation
// the paper's figures carry — without waiting for a doomed run.
//
// The estimates deliberately exclude the owner-computes spill buffers:
// that allocation is transient, sized to the foreign rows each schedule
// leaf's non-zeros touch, charged exactly against the Guard at kernel
// entry by reserveSpills, and released when the kernel returns. A refused
// spill reservation shrinks the worker count until the buffers fit (one
// worker needs none), so the modeled footprints below decide which
// configurations the harness classifies as OOM.

// EstimateSymPropBytes returns the SymProp S³TTMc footprint: compact
// Y_p(1) plus per-worker compact lattice workspaces. The spill buffers are
// left out: the kernel shrinks its worker count until they fit.
func EstimateSymPropBytes(x *spsym.Tensor, rank, workers int) int64 {
	y := memguard.Float64Bytes(int64(x.Dim) * dense.Count(x.Order-1, rank))
	ws := latticeBytes(x.Order, rank, true) * int64(workers)
	return satBytes(y, ws)
}

// EstimateCSSBytes returns the CSS-baseline footprint: tree-resident K
// tensors, full Y(1), and per-worker full lattice workspaces.
func EstimateCSSBytes(x *spsym.Tensor, rank, workers int) int64 {
	tree := cssTreeBytes(x.NNZ(), x.Order, rank)
	y := memguard.Float64Bytes(int64(x.Dim) * dense.Pow64(int64(rank), x.Order-1))
	ws := latticeBytes(x.Order, rank, false) * int64(workers)
	return satBytes(satBytes(tree, y), ws)
}

// EstimateSPLATTBytes returns the SPLATT footprint: the permutation
// expansion, the CSF tree, and the full Y(1).
func EstimateSPLATTBytes(x *spsym.Tensor, rank int) int64 {
	expanded := x.ExpandedNNZ()
	expansion := expanded*int64(x.Order)*4 + expanded*8
	if expansion < 0 {
		return 1 << 62
	}
	tree := expanded*int64(x.Order)*12 + expanded*16
	if tree < 0 {
		return 1 << 62
	}
	y := memguard.Float64Bytes(int64(x.Dim) * dense.Pow64(int64(rank), x.Order-1))
	return satBytes(satBytes(expansion, tree), y)
}

// EstimateNaryBytes returns the n-ary kernel footprint: the full core plus
// per-worker core partials and kron scratch.
func EstimateNaryBytes(x *spsym.Tensor, rank, workers int) int64 {
	kronLen := dense.Pow64(int64(rank), x.Order-1)
	core := memguard.Float64Bytes(int64(rank) * kronLen)
	ws := memguard.Float64Bytes((int64(rank) + 1) * kronLen)
	total := core
	for w := 0; w < workers; w++ {
		total = satBytes(total, ws)
	}
	return total
}

func satBytes(a, b int64) int64 {
	s := a + b
	if s < 0 || a < 0 || b < 0 {
		return 1 << 62
	}
	return s
}
