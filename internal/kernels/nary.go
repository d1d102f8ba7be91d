package kernels

import (
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// NaryResult bundles the outputs of the original-HOQRI n-ary kernel.
type NaryResult struct {
	// A = Y(1)·C(1)ᵀ, shape I x R.
	A *linalg.Matrix
	// CoreFull is the full core unfolding C(1), R x R^{N-1}.
	CoreFull *linalg.Matrix
}

// CoreNormSquared returns ||C||² from the full core.
func (r *NaryResult) CoreNormSquared() float64 {
	var s float64
	for _, v := range r.CoreFull.Data {
		s += v * v
	}
	return s
}

// NaryTTMcTC implements the *original* HOQRI kernel of Sun & Huang [14] as
// the paper characterizes it (Table II): an n-ary contraction that computes
// the core C and the matrix A by streaming over every expanded non-zero
// with no memoization across permutations — O(R^N·N!·unnz) work, but no
// intermediate larger than the R x R^{N-1} core. It is the executable
// baseline behind Table II's third row and the HOQRI-vs-HOQRI-SymProp
// ablation.
//
// Two streaming passes over the (never materialized) expansion:
//
//	pass 1:  C(r1, j) += x · U(i1, r1) · kron_j(U(i2..iN))
//	pass 2:  A(i1, :) += x · C(1) · kron(U(i2..iN))
func NaryTTMcTC(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*NaryResult, error) {
	if err := validate(x, u); err != nil {
		return nil, err
	}
	r := u.Cols
	kronLen := dense.Pow64(int64(r), x.Order-1)
	coreBytes := memguard.Float64Bytes(int64(r) * kronLen)
	// Per-worker: one core partial (pass 1) plus a kron scratch.
	workers := opts.workers()
	wsBytes := memguard.Float64Bytes((int64(r)+1)*kronLen) * int64(workers)
	if err := opts.Guard.Reserve(coreBytes, "n-ary full core C(1)"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(coreBytes)
	if err := opts.Guard.Reserve(wsBytes, "n-ary worker scratch"); err != nil {
		return nil, err
	}
	defer opts.Guard.Release(wsBytes)

	if exec.IsCanceled(opts.Ctx) {
		return nil, exec.Cause(opts.Ctx)
	}
	// Pass 2's spill buffers are reserved before pass 1: when the guard
	// admits them for fewer workers, both passes run at that count, so the
	// output is that of an explicit run at it.
	workers, sched, release := reserveSpills(opts.Guard, opts.Schedules, x, r, min(workers, x.NNZ()))
	defer release()
	core := linalg.NewMatrix(r, int(kronLen))

	// Pass 1: accumulate the core from every expanded non-zero. Each worker
	// fills a private partial over its static share of the non-zero range
	// (the engine's Static partition, whose boundaries depend only on
	// (nnz, workers)); the reduction folds partials in worker order so the
	// core — and everything computed from it in pass 2 — is
	// bitwise-reproducible for a given worker count.
	partials := make([]*linalg.Matrix, workers)
	err := exec.Run(opts.ExecConfig(), exec.Plan{
		Name:    "nary.core",
		Items:   x.NNZ(),
		Workers: workers,
		Scratch: func(w *exec.Worker) error {
			partial := linalg.NewMatrix(r, int(kronLen))
			partials[w.Index] = partial
			w.Scratch = partial
			return nil
		},
		Body: func(wk *exec.Worker, lo, hi int) error {
			partial := wk.Scratch.(*linalg.Matrix)
			kron := make([]float64, kronLen)
			perm := make([]int32, x.Order)
			emit := func(idx []int32, val float64) {
				kronRows(u, idx[1:], kron)
				urow := u.Row(int(idx[0]))
				//symlint:tickpoll per-item callback: runs under the Tick of the range loop that invokes it
				for r1 := 0; r1 < r; r1++ {
					c := val * urow[r1]
					row := partial.Row(r1)
					for j, kv := range kron {
						row[j] += c * kv
					}
				}
			}
			for k := lo; k < hi; k++ {
				if err := wk.Tick(k); err != nil {
					return err
				}
				x.ForEachExpandedOf(k, perm, emit)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	for _, partial := range partials {
		if partial == nil {
			continue // zero non-zeros: no worker slot ever started
		}
		for i, v := range partial.Data {
			core.Data[i] += v
		}
	}

	// Pass 2: A(i1,:) += x · C(1)·kron. The scatter into A's rows follows
	// the same leading-row emission pattern as every other kernel, so it
	// runs the same owner-computes schedule with spill buffers.
	a := linalg.NewMatrix(x.Dim, r)
	if x.NNZ() == 0 {
		return &NaryResult{A: a, CoreFull: core}, nil
	}
	err = scatterWorkers(opts, sched, a, ownerPass{
		name: "nary.scatter.owner",
		emitter: func(_ *exec.Worker, s *sink) func(int) error {
			kron := make([]float64, core.Cols)
			contrib := make([]float64, a.Cols)
			perm := make([]int32, x.Order)
			each := func(idx []int32, val float64) {
				kronRows(u, idx[1:], kron)
				naryContrib(core, kron, val, contrib)
				s.add(int(idx[0]), 1, contrib)
			}
			return func(k int) error {
				x.ForEachExpandedOf(k, perm, each)
				return nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := exec.FireOutput("nary", a); err != nil {
		return nil, err
	}
	return &NaryResult{A: a, CoreFull: core}, nil
}

// naryContrib computes contrib = val · C(1)·kron for one expanded
// permutation.
func naryContrib(core *linalg.Matrix, kron []float64, val float64, contrib []float64) {
	for r1 := range contrib {
		row := core.Row(r1)
		var s float64
		for j, kv := range kron {
			s += row[j] * kv
		}
		contrib[r1] = val * s
	}
}

// kronRows writes the Kronecker product of the U rows selected by idx into
// out (length R^len(idx)), leftmost row slowest-varying — matching the
// column order of the full unfoldings used throughout this module.
func kronRows(u *linalg.Matrix, idx []int32, out []float64) {
	r := u.Cols
	first := u.Row(int(idx[0]))
	copy(out[:r], first)
	length := r
	for a := 1; a < len(idx); a++ {
		row := u.Row(int(idx[a]))
		// Expand in place from the back to avoid a second buffer.
		for i := length - 1; i >= 0; i-- {
			v := out[i]
			base := i * r
			for j := r - 1; j >= 0; j-- {
				out[base+j] = v * row[j]
			}
		}
		length *= r
	}
}
