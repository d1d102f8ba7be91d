package kernels

import (
	"fmt"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
)

// Fusion selects whether the SymProp kernel may dispatch all-distinct
// non-zeros to the fused per-(order, rank) evaluators of fused_gen.go —
// the codegen-v2 ablation knob.
type Fusion int

const (
	// FusionAuto (default) uses a fused evaluator when one was generated
	// for (order, rank) and the call is otherwise on the generated fast
	// path: compact layout and IterGenerated.
	// Non-zeros with repeated indices and unspecialized shapes always take
	// the generic lattice path; the two produce bit-identical output.
	FusionAuto Fusion = iota
	// FusionOff forces the generic lattice path everywhere — the ablation
	// baseline the fused kernels are benchmarked and verified against.
	FusionOff
)

func (f Fusion) String() string {
	switch f {
	case FusionAuto:
		return "auto"
	case FusionOff:
		return "off"
	default:
		return "unknown"
	}
}

// fusedEvalFunc is the contract of the generated fused evaluators: compute
// the order top-level compact K tensors of the all-distinct lattice for
// the non-zero with the given (strictly increasing) index tuple, writing
// them slot-major into tops (order consecutive blocks of S_{order-1,r}
// entries; block t is K[i∖i_t], the Y-row factor for output row
// values[t]). tops is fully overwritten.
type fusedEvalFunc func(u *linalg.Matrix, values []int32, tops []float64)

// resolveFusion returns the fused evaluator for this kernel call, or nil
// when the call must take the generic path: fusion disabled, full (CSS)
// storage, a non-default iteration strategy, or an unspecialized
// (order, rank) pair.
func resolveFusion(opts Options, compact bool, order, r int) fusedEvalFunc {
	if opts.Fusion != FusionAuto || !compact || opts.Iteration != IterGenerated {
		return nil
	}
	return fusedEvalFor(order, r)
}

// fusionMissReason classifies why a kernel call cannot dispatch to a fused
// evaluator, mirroring resolveFusion's checks in order; "" means the call
// is on the fused fast path. The reasons are the vocabulary of the
// fused-dispatch miss counters below (docs/CODEGEN.md).
func fusionMissReason(opts Options, compact bool, order, r int) string {
	switch {
	case opts.Fusion != FusionAuto:
		return "fusion-off"
	case !compact:
		return "full-storage"
	case opts.Iteration != IterGenerated:
		return "iteration-strategy"
	case fusedEvalFor(order, r) == nil:
		return "off-grid"
	default:
		return ""
	}
}

// recordFusionMiss counts one resolveFusion fallback per (order, rank,
// reason) in the process-global counter set, once per kernel call (not per
// worker slot). The counters are how the genkernels grid grows
// data-driven: `symprop-bench -metrics` snapshots them, and a hot
// "off-grid" (order, rank) pair is a candidate for generation (ROADMAP
// item 3). Disarmed cost is one atomic load.
func recordFusionMiss(opts Options, compact bool, order, r int) {
	c := obs.GlobalCounters()
	if c == nil {
		return
	}
	reason := fusionMissReason(opts, compact, order, r)
	if reason == "" {
		return
	}
	c.Add(fmt.Sprintf("fusion.miss[order=%d rank=%d reason=%s]", order, r, reason), 1)
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
