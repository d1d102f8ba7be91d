// Package cpd implements symmetric CP (canonical polyadic) decomposition of
// sparse symmetric tensors — the paper's future-work direction of applying
// propagated symmetry to other decompositions (§VIII). The tensor is
// approximated as
//
//	X ≈ Σ_{r=1}^{R} λ_r · u_r ⊗ u_r ⊗ … ⊗ u_r
//
// with a single factor U shared across modes. The workhorse kernel is
// S³MTTKRP (kernels.S3MTTKRP), where the symmetry payoff is even cleaner
// than in Tucker: the Hadamard (elementwise) product of U rows is
// permutation-invariant, so the (N-1)! expanded contributions of an IOU
// non-zero collapse to a single product scaled by the multinomial
// permutation count — no intermediate tensors at all.
package cpd

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// Options configures a symmetric CP-ALS run.
type Options struct {
	// Rank is the CP rank R (number of symmetric rank-1 components).
	Rank int
	// MaxIters bounds the ALS sweeps (default 100).
	MaxIters int
	// Tol stops when the relative fit improvement drops below it (default
	// 0: run all sweeps).
	Tol float64
	// Seed drives the random initialization.
	Seed int64
	// Workers is the kernel parallelism (0 = GOMAXPROCS). The result's
	// bits are fixed by (tensor, options, Workers).
	Workers int
}

// Result is a completed symmetric CP decomposition.
type Result struct {
	// U is the factor, I x R, with unit-norm columns.
	U *linalg.Matrix
	// Lambda holds the component weights.
	Lambda []float64
	// NormX2 is ||X||².
	NormX2 float64
	// Fit traces the relative fit 1 - ||X - X̂||/||X|| per sweep.
	Fit []float64
	// Iters is the completed sweep count.
	Iters int
	// Converged reports whether Tol was met.
	Converged bool
}

// FinalFit returns the last fit value (1 = exact reconstruction).
func (r *Result) FinalFit() float64 {
	if len(r.Fit) == 0 {
		return math.NaN()
	}
	return r.Fit[len(r.Fit)-1]
}

// Decompose runs symmetric CP-ALS: each sweep solves the linear
// least-squares update U ← M·V⁻¹ with M = S³MTTKRP(X, U) and
// V = (UᵀU)^{∘(N-1)} (elementwise power of the Gram), then renormalizes
// columns and refits the weights λ by solving (UᵀU)^{∘N}·λ = b with
// b_r = X ×₁ u_rᵀ ⋯ ×_N u_rᵀ. M comes from kernels.S3MTTKRP, whose
// owner-computes schedule is built once per run, and both Grams UᵀU from
// plan cpd.gram; every plan runs on the run's one exec.Pool, and its errors
// and worker panics come back from Decompose.
func Decompose(x *spsym.Tensor, opts Options) (*Result, error) {
	if x.Order < 2 {
		return nil, fmt.Errorf("cpd: order %d tensor; need order >= 2", x.Order)
	}
	if opts.Rank < 1 {
		return nil, fmt.Errorf("cpd: rank %d must be positive", opts.Rank)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 100
	}
	r := opts.Rank
	rng := rand.New(rand.NewSource(opts.Seed))
	u := linalg.RandomNormal(x.Dim, r, rng)
	normalizeColumns(u)

	res := &Result{NormX2: x.NormSquared()}
	lambda := make([]float64, r)
	// One engine pool per run, sized to the worker count (GOMAXPROCS when
	// unset): every sweep's mttkrp.owner and cpd.gram plans reuse its
	// goroutines.
	pool := exec.NewPool(opts.Workers)
	defer pool.Close()
	kopts := kernels.Options{Workers: opts.Workers, Schedules: &kernels.ScheduleCache{}, Exec: pool}
	cfg := kopts.ExecConfig()

	for it := 0; it < opts.MaxIters; it++ {
		// M = S³MTTKRP(X, U), I x R.
		m, err := kernels.S3MTTKRP(x, u, kopts)
		if err != nil {
			return nil, fmt.Errorf("cpd: %w", err)
		}

		// V = (UᵀU)^{∘(N-1)}.
		gram, err := linalg.RunMulTN(cfg, "cpd.gram", u, u)
		if err != nil {
			return nil, fmt.Errorf("cpd: %w", err)
		}
		v := hadamardPower(gram, x.Order-1)

		// Solve U·V = M  =>  Vᵀ·Uᵀ = Mᵀ; V is symmetric, so solve V·Uᵀ = Mᵀ.
		ut, err := linalg.SolveSPD(v, m.T())
		if err != nil {
			return nil, fmt.Errorf("cpd: ALS solve failed: %w", err)
		}
		u = ut.T()
		normalizeColumns(u)

		// Refit lambda: (UᵀU)^{∘N} λ = b.
		if gram, err = linalg.RunMulTN(cfg, "cpd.gram", u, u); err != nil {
			return nil, fmt.Errorf("cpd: %w", err)
		}
		gN := hadamardPower(gram, x.Order)
		b := innerWithComponents(x, u)
		lambda, err = linalg.SolveSPDVector(gN, b)
		if err != nil {
			return nil, fmt.Errorf("cpd: weight solve failed: %w", err)
		}

		// Fit: ||X - X̂||² = ||X||² - 2 λᵀb + λᵀ G^{∘N} λ.
		var lb, lgl float64
		for i := 0; i < r; i++ {
			lb += lambda[i] * b[i]
			for j := 0; j < r; j++ {
				lgl += lambda[i] * gN.At(i, j) * lambda[j]
			}
		}
		err2 := res.NormX2 - 2*lb + lgl
		fit := 1.0
		if res.NormX2 > 0 {
			fit = 1 - math.Sqrt(math.Max(err2, 0)/res.NormX2)
		}
		res.Fit = append(res.Fit, fit)
		res.Iters = it + 1
		if n := len(res.Fit); opts.Tol > 0 && n >= 2 &&
			math.Abs(res.Fit[n-1]-res.Fit[n-2]) <= opts.Tol {
			res.Converged = true
			break
		}
	}
	res.U = u
	res.Lambda = lambda
	return res, nil
}

// innerWithComponents returns b with b_r = X ×₁ u_rᵀ ⋯ ×_N u_rᵀ: per IOU
// non-zero, x·perm(i)·Π_w U(w,r)^{mult(w)}.
func innerWithComponents(x *spsym.Tensor, u *linalg.Matrix) []float64 {
	r := u.Cols
	b := make([]float64, r)
	idx := make([]int, x.Order)
	for k := 0; k < x.NNZ(); k++ {
		tuple := x.IndexAt(k)
		for i, v := range tuple {
			idx[i] = int(v)
		}
		w := x.Values[k] * float64(dense.PermutationCount(idx))
		for c := 0; c < r; c++ {
			p := w
			for _, v := range idx {
				p *= u.At(v, c)
			}
			b[c] += p
		}
	}
	return b
}

// hadamardPower returns A^{∘p}: elementwise p-th power.
func hadamardPower(a *linalg.Matrix, p int) *linalg.Matrix {
	out := a.Clone()
	for i, v := range a.Data {
		w := 1.0
		for e := 0; e < p; e++ {
			w *= v
		}
		out.Data[i] = w
	}
	return out
}

func normalizeColumns(u *linalg.Matrix) {
	for c := 0; c < u.Cols; c++ {
		var n float64
		for i := 0; i < u.Rows; i++ {
			v := u.At(i, c)
			n += v * v
		}
		n = math.Sqrt(n)
		if n == 0 {
			continue
		}
		for i := 0; i < u.Rows; i++ {
			u.Set(i, c, u.At(i, c)/n)
		}
	}
}

// EvalApprox evaluates X̂ at one index: Σ_r λ_r Π_a U(idx_a, r).
func (r *Result) EvalApprox(idx []int) float64 {
	var sum float64
	for c := 0; c < r.U.Cols; c++ {
		p := r.Lambda[c]
		for _, v := range idx {
			p *= r.U.At(v, c)
		}
		sum += p
	}
	return sum
}
