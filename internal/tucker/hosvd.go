package tucker

import (
	"errors"
	"math"
	"sort"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// HOSVDInit computes the symmetric HOSVD starting factor: the R leading
// left singular vectors of the mode-1 unfolding X(1) (paper §V). They are
// the top eigenvectors of the Gram matrix G = X(1)·X(1)ᵀ, which this
// package assembles directly from the IOU non-zeros without expanding
// permutations:
//
// G(a,b) = Σ_r X(a,r)·X(b,r). Group the full non-zeros by "remainder" (the
// index multiset minus the first index): X(a,·) is non-zero on the perm(Q)
// permutations of each remainder Q with value x_{Q∪{a}}, so each remainder
// group contributes perm(Q)·x_a·x_b to every ordered pair (a, b) that
// extends Q to a stored non-zero.
//
// Two execution paths share the grouping:
//
//   - small dimension: materialize the dense I x I Gram and solve it
//     exactly;
//   - large dimension (or when the dense Gram exceeds the memory budget):
//     run matrix-free subspace iteration — G·v costs one pass over the
//     group lists, so HOSVD stays feasible at dimensions where I² doubles
//     would never fit (the regime where the paper falls back to random
//     initialization; this path removes that limitation, documented as an
//     extension in DESIGN.md).
func HOSVDInit(x *spsym.Tensor, rank int, guard *memguard.Guard) (*linalg.Matrix, error) {
	if rank < 1 || rank > x.Dim {
		return nil, errors.New("tucker: HOSVD rank out of range")
	}
	groups, err := buildRemainderGroups(x, guard)
	if err != nil {
		return nil, err
	}

	// Prefer the exact dense path when the Gram fits comfortably.
	gramBytes := memguard.Float64Bytes(int64(x.Dim) * int64(x.Dim))
	const denseGramLimit = 64 << 20 // 64 MB of Gram = dim ~2900
	if gramBytes <= denseGramLimit && guard.Reserve(gramBytes, "HOSVD Gram matrix") == nil {
		defer guard.Release(gramBytes)
		g := linalg.NewMatrix(x.Dim, x.Dim)
		for _, grp := range groups {
			for _, e1 := range grp.exts {
				for _, e2 := range grp.exts {
					g.Data[int(e1.a)*x.Dim+int(e2.a)] += grp.w * e1.x * e2.x
				}
			}
		}
		u, err := linalg.TopEigenvectors(g, rank)
		if err != nil {
			return nil, err
		}
		return canonicalSigns(u), nil
	}

	// Matrix-free path: G·v in one pass over the groups.
	op := func(v, out []float64) {
		for i := range out {
			out[i] = 0
		}
		for _, grp := range groups {
			var s float64
			for _, e := range grp.exts {
				s += e.x * v[e.a]
			}
			s *= grp.w
			for _, e := range grp.exts {
				out[e.a] += e.x * s
			}
		}
	}
	_, u, err := linalg.SubspaceIteration(op, x.Dim, rank, 40, 1)
	if err != nil {
		return nil, err
	}
	return canonicalSigns(u), nil
}

type extension struct {
	a int32
	x float64
}

type remainderGroup struct {
	w    float64 // perm(Q), the distinct permutation count of the remainder
	exts []extension
}

// buildRemainderGroups indexes the non-zeros by remainder multiset.
func buildRemainderGroups(x *spsym.Tensor, guard *memguard.Guard) ([]remainderGroup, error) {
	mapBytes := int64(x.NNZ()) * int64(x.Order) * int64(x.Order*4+24)
	if err := guard.Reserve(mapBytes, "HOSVD remainder index"); err != nil {
		return nil, err
	}
	defer guard.Release(mapBytes)

	byKey := make(map[string][]extension, x.NNZ())
	rest := make([]int32, 0, x.Order-1)
	key := make([]byte, (x.Order-1)*4)
	for k := 0; k < x.NNZ(); k++ {
		tuple := x.IndexAt(k)
		val := x.Values[k]
		for i := 0; i < x.Order; i++ {
			if i > 0 && tuple[i] == tuple[i-1] {
				continue // same distinct value, same remainder
			}
			rest = rest[:0]
			for j, v := range tuple {
				if j == i {
					continue
				}
				rest = append(rest, v)
			}
			for j, v := range rest {
				key[j*4] = byte(v)
				key[j*4+1] = byte(v >> 8)
				key[j*4+2] = byte(v >> 16)
				key[j*4+3] = byte(v >> 24)
			}
			byKey[string(key)] = append(byKey[string(key)], extension{a: tuple[i], x: val})
		}
	}

	// Emit groups in sorted-key order, not map order: group order decides
	// the float accumulation order in the Gram/matrix-free passes below,
	// and map iteration is randomized per run — bit-identity across runs
	// requires a fixed order.
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	groups := make([]remainderGroup, 0, len(byKey))
	restDecoded := make([]int, x.Order-1)
	for _, key := range keys {
		for j := range restDecoded {
			restDecoded[j] = int(int32(uint32(key[j*4]) | uint32(key[j*4+1])<<8 |
				uint32(key[j*4+2])<<16 | uint32(key[j*4+3])<<24))
		}
		groups = append(groups, remainderGroup{
			w:    float64(dense.PermutationCount(restDecoded)),
			exts: byKey[key],
		})
	}
	return groups, nil
}

// canonicalSigns makes the largest-magnitude entry of each column positive,
// a deterministic sign convention.
func canonicalSigns(u *linalg.Matrix) *linalg.Matrix {
	for c := 0; c < u.Cols; c++ {
		best, bestAbs := 0.0, 0.0
		for i := 0; i < u.Rows; i++ {
			if a := math.Abs(u.At(i, c)); a > bestAbs {
				bestAbs = a
				best = u.At(i, c)
			}
		}
		if best < 0 {
			for i := 0; i < u.Rows; i++ {
				u.Set(i, c, -u.At(i, c))
			}
		}
	}
	return u
}

// BestRandomInit runs `restarts` random orthonormal initializations of one
// HOQRI sweep each and returns the U0 with the lowest single-sweep
// reconstruction error — the paper's footnote-5 protocol for datasets too
// large for HOSVD.
//
// Every restart inherits the caller's execution options (Ctx, Guard,
// Workers, Pool, Metrics), so a cancellation or a caller-chosen
// pool reaches the nested sweeps; an earlier version rebuilt Options from
// scratch per restart, silently dropping them. Restart s uses seed
// opts.Seed+s. Fields that only make sense for a full run — U0, Init, Tol,
// MaxIters, checkpointing, Resume, OnIteration, TraceSink — are overridden
// or cleared: the restarts are probes, not resumable runs. When opts.Pool
// is nil, one pool is created here and shared by all restarts instead of
// paying a pool spin-up per restart.
func BestRandomInit(x *spsym.Tensor, restarts int, opts Options) (*linalg.Matrix, error) {
	if restarts < 1 {
		restarts = 1
	}
	pool, closePool := opts.execPool()
	defer closePool()
	var best *linalg.Matrix
	bestErr := math.Inf(1)
	for s := 0; s < restarts; s++ {
		probe := opts
		probe.MaxIters = 1
		probe.Tol = 0
		probe.Init = InitRandom
		probe.U0 = nil
		probe.Seed = opts.Seed + int64(s)
		probe.Pool = pool
		probe.CheckpointPath = ""
		probe.CheckpointEvery = 0
		probe.Resume = nil
		probe.OnIteration = nil
		probe.TraceSink = nil
		res, err := HOQRI(x, probe)
		if err != nil {
			return nil, err
		}
		if e := res.FinalRelError(); e < bestErr {
			bestErr = e
			best = res.U
		}
	}
	return best, nil
}
