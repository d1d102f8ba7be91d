package shard

// Sharded Gram-side products for the Tucker drivers. Each product is
// banded over *output* rows: engine s fills its contiguous band of the
// output in place via the linalg Range kernels, which are documented
// bitwise independent of the band split. Output rows never sum across
// shards, so the result is bitwise identical to the single-engine linalg
// call, and the whole sharded decomposition stays bit-for-bit equal to the
// unsharded one.
//
// (The Chakaravarthy-style K-split — per-shard Gram *summands* G_s with a
// reduction — is what a network transport would want once shards stop
// sharing an address space, at the cost of cross-shard-count bit
// identity; docs/SHARDING.md keeps that trade-off out of scope.)

import (
	"fmt"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
)

// rangeKernel computes output rows [lo, hi) of one product into c.
type rangeKernel func(c *linalg.Matrix, lo, hi int)

// banded fans the output rows of a product out across the engines as plan
// name; engine s splits its band across its own pool as plan
// "<name>.shard[s]". opts contributes Ctx and Obs only.
func (e *Engines) banded(name string, rows, cols int, opts kernels.Options, kern rangeKernel) (*linalg.Matrix, error) {
	out := linalg.NewMatrix(rows, cols)
	err := e.Fan(name, rows, opts, func(s, lo, hi int, pool *exec.Pool) error {
		// Re-banding is bitwise-safe per the Range kernels' contract.
		return exec.Run(exec.Config{Ctx: opts.Ctx, Workers: pool.Size(), Pool: pool, Metrics: opts.Obs}, exec.Plan{
			Name:  obs.ShardPlanName(name, s),
			Items: hi - lo,
			Body: func(wk *exec.Worker, ilo, ihi int) error {
				if err := wk.Tick(ilo); err != nil {
					return err
				}
				kern(out, lo+ilo, lo+ihi)
				return nil
			},
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MulTN computes C = Aᵀ·B across the engines, bitwise identical to
// linalg.MulTN — the sharded form of the drivers' Gram (G = Y_pᵀ·Y_p) and
// core-projection (C_p = Uᵀ·Y_p) steps.
func (e *Engines) MulTN(a, b *linalg.Matrix, opts kernels.Options) (*linalg.Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("shard: MulTN shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return e.banded("shard.gram", a.Cols, b.Cols, opts, func(c *linalg.Matrix, lo, hi int) {
		linalg.MulTNRange(c, a, b, lo, hi)
	})
}

// MulNTWeighted computes C = A·diag(w)·Bᵀ across the engines, bitwise
// identical to linalg.MulNTWeighted — the sharded form of HOQRI's
// A = Y_p(1)·diag(p)·C_p(1)ᵀ step (paper Property 3).
func (e *Engines) MulNTWeighted(a, b *linalg.Matrix, w []float64, opts kernels.Options) (*linalg.Matrix, error) {
	if a.Cols != b.Cols || len(w) != a.Cols {
		return nil, fmt.Errorf("shard: MulNTWeighted shape mismatch %dx%d, %dx%d, |w|=%d", a.Rows, a.Cols, b.Rows, b.Cols, len(w))
	}
	return e.banded("shard.tc", a.Rows, b.Rows, opts, func(c *linalg.Matrix, lo, hi int) {
		linalg.MulNTWeightedRange(c, a, b, w, lo, hi)
	})
}
