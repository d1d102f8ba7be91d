package kernels

import (
	"fmt"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
)

// fusedEvalFunc is the contract of the generated fused evaluators: compute
// the order top-level compact K tensors of the all-distinct lattice for
// the non-zero with the given (strictly increasing) index tuple, writing
// them slot-major into tops (order consecutive blocks of S_{order-1,r}
// entries; block t is K[i∖i_t], the Y-row factor for output row
// values[t]). tops is fully overwritten.
type fusedEvalFunc func(u *linalg.Matrix, values []int32, tops []float64)

// resolveFusion is the dispatch rule of the fused evaluators. It returns
// the evaluator generated for (order, r) when the call runs the compact
// layout, and otherwise nil and the reason the call misses: the
// vocabulary of the fusion.miss counters (docs/CODEGEN.md). Inside a
// resolved call, non-zeros with repeated indices still take the lattice
// interpreter (latticeState.emit).
func resolveFusion(opts Options, compact bool, order, r int) (fusedEvalFunc, string) {
	switch {
	case opts.noFusion || opts.lexWalk:
		return nil, "fusion-off"
	case !compact:
		return nil, "full-storage"
	}
	if f := fusedEvalFor(order, r); f != nil {
		return f, ""
	}
	return nil, "off-grid"
}

// recordFusionMiss counts one resolveFusion fallback per (order, rank,
// reason) in the process-global counter set, once per kernel call (not per
// worker slot); `symprop-bench -metrics` snapshots them. A hot "off-grid"
// pair joins the genkernels grid only with a BenchmarkS3TTMcFused row
// showing its fused evaluator beats the interpreter. Disarmed cost is one
// atomic load.
func recordFusionMiss(opts Options, compact bool, order, r int) {
	c := obs.GlobalCounters()
	if c == nil {
		return
	}
	if _, reason := resolveFusion(opts, compact, order, r); reason != "" {
		c.Add(fmt.Sprintf("fusion.miss[order=%d rank=%d reason=%s]", order, r, reason), 1)
	}
}

// allDistinct reports whether the sorted IOU tuple has no repeated index —
// the signature the fused evaluators are specialized for.
func allDistinct(tuple []int32) bool {
	for i := 1; i < len(tuple); i++ {
		if tuple[i] == tuple[i-1] {
			return false
		}
	}
	return true
}

// fusedScratch returns the workspace's tops buffer for the fused
// evaluators: the top level of its K buffers, order · S_{order-1,r}
// contiguous entries, recycled with the workspace through the
// WorkspacePool.
func (w *workspace) fusedScratch() []float64 {
	w.buffers()
	return w.tops
}
