// Package symprop is a pure-Go library for scalable sparse symmetric
// Tucker decomposition via symmetry propagation, reproducing
// "SymProp: Scaling Sparse Symmetric Tucker Decomposition via Symmetry
// Propagation" (IPDPS 2025).
//
// The library decomposes a sparse symmetric tensor X (for example the
// adjacency tensor of a hypergraph) as X ≈ C ×₁ Uᵀ ⋯ ×_N Uᵀ with a single
// orthonormal factor U shared by all modes and a compact symmetric core C.
// Its computational kernels exploit the symmetry of every intermediate
// tensor — not just the input — storing and computing only index-ordered-
// unique entries, which shrinks the dominant per-level cost from R^l to
// C(l+R-1, l) and lets both the S³TTMc and S³TTMcTC kernels reach tensor
// orders and ranks where general sparse frameworks exhaust memory.
//
// Quick start:
//
//	x, err := symprop.LoadTensor("hypergraph.tns")
//	res, err := symprop.Decompose(x, symprop.Options{Rank: 8})
//	fmt.Println("relative error:", res.FinalRelError())
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system architecture.
package symprop

import (
	"context"
	"fmt"
	"io"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/cpd"
	"github.com/symprop/symprop/internal/hypergraph"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

// Tensor is a sparse symmetric tensor stored in UCOO form: only
// index-ordered-unique non-zeros, each standing for all permutations of its
// index tuple.
type Tensor = spsym.Tensor

// Matrix is a dense row-major matrix.
type Matrix = linalg.Matrix

// Hypergraph is a set of hyperedges convertible to an adjacency Tensor.
type Hypergraph = hypergraph.Hypergraph

// Result is a completed Tucker decomposition: the factor U, the compact
// core, and per-iteration convergence traces.
type Result = tucker.Result

// Observability types (see internal/obs and docs/OBSERVABILITY.md):
// Metrics is the per-plan counter collector the execution engine records
// into; PlanMetrics is one plan's aggregated counters (Result.PlanMetrics);
// TraceEvent is one completed sweep's record (Result.Trace); TraceSink
// receives events as they are produced.
type (
	Metrics     = obs.Metrics
	PlanMetrics = obs.PlanMetrics
	TraceEvent  = obs.TraceEvent
	TraceSink   = obs.TraceSink
)

// NewMetrics returns an empty observability collector, for sharing across
// runs via Options.Metrics or exporting via expvar.
func NewMetrics() *Metrics { return obs.New() }

// CreateTraceJSONL creates (truncating) a JSON-Lines trace sink at path for
// Options.TraceSink; the caller owns Close.
func CreateTraceJSONL(path string) (*obs.JSONLSink, error) { return obs.CreateJSONL(path) }

// ErrOutOfMemory is returned when an operation would exceed the configured
// memory budget; detect it with errors.Is.
var ErrOutOfMemory = memguard.ErrOutOfMemory

// The resilient-runtime failure taxonomy (DESIGN.md §7). Every abnormal
// Decompose exit matches exactly one of these with errors.Is.
var (
	// ErrCanceled marks a run stopped by Options.Ctx; the concrete error is
	// a *CanceledError carrying the partial result and checkpoint path.
	ErrCanceled = tucker.ErrCanceled
	// ErrBudget marks a run killed by the memory guard after recovery
	// (one worker, single engine) failed; the chain also matches
	// ErrOutOfMemory.
	ErrBudget = tucker.ErrBudget
	// ErrNumericBreakdown marks iterates that stayed non-finite after a
	// jittered restart.
	ErrNumericBreakdown = tucker.ErrNumericBreakdown
	// ErrCheckpointCorrupt marks an unreadable snapshot file.
	ErrCheckpointCorrupt = checkpoint.ErrCheckpointCorrupt
	// ErrCheckpointMismatch marks a valid snapshot that belongs to a
	// different run configuration (tensor, algorithm, rank, workers, seed).
	ErrCheckpointMismatch = checkpoint.ErrMismatch
)

// CanceledError is the concrete cancellation error returned by Decompose;
// see tucker.CanceledError.
type CanceledError = tucker.CanceledError

// NewTensor returns an empty sparse symmetric tensor of the given order and
// hypercubical dimension size. Add non-zeros with Append, then call
// Canonicalize before decomposing. It panics on a non-positive dimension or
// an order outside [1, 16] (programmer error, not data error).
func NewTensor(order, dim int) *Tensor { return spsym.New(order, dim) }

// LoadTensor reads a tensor file in either the symmetric text format
// ("sym <order> <dim> <nnz>" header, then 1-based "i1 ... iN value" lines)
// or the binary format written by SaveTensorBinary, sniffing the header.
func LoadTensor(path string) (*Tensor, error) { return spsym.LoadAuto(path) }

// SaveTensorBinary writes t in the compact binary format, which loads an
// order of magnitude faster than text for large tensors.
func SaveTensorBinary(t *Tensor, path string) error { return t.SaveBinary(path) }

// ReadTensor parses the symmetric text format from a reader.
func ReadTensor(r io.Reader) (*Tensor, error) { return spsym.ReadFrom(r) }

// RandomTensor generates a uniform-random sparse symmetric tensor with
// exactly nnz distinct IOU non-zeros (values uniform in (0,1]).
func RandomTensor(order, dim, nnz int, seed int64) (*Tensor, error) {
	return spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed})
}

// ReadHypergraph parses a hypergraph edge list (whitespace-separated
// 0-based node ids, one hyperedge per line).
func ReadHypergraph(r io.Reader) (*Hypergraph, error) { return hypergraph.ReadEdgeList(r) }

// Algorithm selects the Tucker iteration scheme.
type Algorithm int

const (
	// HOQRI (default) replaces HOOI's SVD with QR on the S³TTMcTC output;
	// it never materializes anything larger than I x S_{N-1,R} and scales
	// to large dimensions, high orders and moderate ranks.
	HOQRI Algorithm = iota
	// HOOI updates the factor with the leading left singular vectors of
	// the unfolded chain product; faster per iteration count on small
	// low-order tensors but needs the full I x R^{N-1} unfolding.
	HOOI
	// HOOIRandomized replaces HOOI's exact SVD with randomized subspace
	// iteration on a matrix-free Gram operator over the compact unfolding —
	// HOOI's convergence behaviour without its memory cliff (an extension
	// in the direction of the randomized-Tucker literature the paper cites).
	HOOIRandomized
)

// Options configures Decompose.
type Options struct {
	// Rank is the Tucker rank R (required, 1 <= R <= dim).
	Rank int
	// Algorithm selects HOQRI (default) or HOOI.
	Algorithm Algorithm
	// MaxIters bounds the sweeps (default 100).
	MaxIters int
	// Tol stops early when the relative objective improvement falls below
	// it; 0 runs all MaxIters.
	Tol float64
	// HOSVDInit initializes U from the leading singular vectors of X(1)
	// instead of randomly.
	HOSVDInit bool
	// Seed drives random initialization.
	Seed int64
	// U0 optionally supplies the starting factor (overrides init options).
	U0 *Matrix
	// MemoryBudget bounds simulated memory in bytes; 0 uses the
	// SYMPROP_MEM_BUDGET environment variable (default 2 GiB), and a
	// negative value disables the budget.
	MemoryBudget int64
	// Workers is the kernel parallelism (0 = GOMAXPROCS).
	Workers int
	// Shards, when > 1, runs the S³TTMc kernel and the Gram-side products
	// on that many isolated shard engines (internal/shard), each with its
	// own worker pool and caches. The result is bitwise identical to the
	// single-engine run for every shard count; see docs/SHARDING.md.
	Shards int
	// Ctx, when non-nil, cancels the run cooperatively; see
	// tucker.Options.Ctx. A canceled run returns a *CanceledError.
	Ctx context.Context
	// CheckpointPath enables periodic resumable snapshots; see
	// tucker.Options.CheckpointPath.
	CheckpointPath string
	// CheckpointEvery is the snapshot period in iterations; any value <= 0
	// uses tucker.DefaultCheckpointEvery (10). Effective only with
	// CheckpointPath.
	CheckpointEvery int
	// Resume restores the snapshot at CheckpointPath instead of
	// initializing; the resumed run's trace is bit-identical to an
	// uninterrupted one for the same configuration.
	Resume bool
	// Metrics, when non-nil, is the observability collector the run's
	// kernel plans record into (see NewMetrics); nil uses a private one.
	// Either way Result.PlanMetrics carries the aggregated counters.
	Metrics *Metrics
	// TraceSink, when non-nil, receives every per-sweep TraceEvent as it
	// is produced, in addition to Result.Trace. Sink errors become health
	// events, never run failures.
	TraceSink TraceSink
}

func (o Options) guard() *memguard.Guard {
	switch {
	case o.MemoryBudget < 0:
		return nil
	case o.MemoryBudget == 0:
		return memguard.FromEnv()
	default:
		return memguard.New(o.MemoryBudget)
	}
}

func (o Options) tuckerOptions() tucker.Options {
	init := tucker.InitRandom
	if o.HOSVDInit {
		init = tucker.InitHOSVD
	}
	return tucker.Options{
		Rank:            o.Rank,
		MaxIters:        o.MaxIters,
		Tol:             o.Tol,
		Init:            init,
		Seed:            o.Seed,
		U0:              o.U0,
		Guard:           o.guard(),
		Workers:         o.Workers,
		Shards:          o.Shards,
		Ctx:             o.Ctx,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		Metrics:         o.Metrics,
		TraceSink:       o.TraceSink,
	}
}

// Decompose computes the symmetric Tucker decomposition of x.
func Decompose(x *Tensor, opts Options) (*Result, error) {
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("symprop: invalid tensor (did you call Canonicalize?): %w", err)
	}
	topts := opts.tuckerOptions()
	if opts.Resume {
		if opts.CheckpointPath == "" {
			return nil, fmt.Errorf("symprop: Resume requires CheckpointPath")
		}
		state, err := checkpoint.Load(opts.CheckpointPath)
		if err != nil {
			return nil, fmt.Errorf("symprop: resume: %w", err)
		}
		topts.Resume = state
	}
	switch opts.Algorithm {
	case HOQRI:
		return tucker.HOQRI(x, topts)
	case HOOI:
		return tucker.HOOI(x, topts)
	case HOOIRandomized:
		return tucker.HOOIRandomized(x, topts)
	default:
		return nil, fmt.Errorf("symprop: unknown algorithm %d", opts.Algorithm)
	}
}

// BestRandomInit evaluates `restarts` random initializations with one HOQRI
// sweep each and returns the best starting factor (the paper's protocol for
// tensors too large for HOSVD).
func BestRandomInit(x *Tensor, rank, restarts int, seed int64) (*Matrix, error) {
	return tucker.BestRandomInit(x, restarts,
		tucker.Options{Rank: rank, Seed: seed, Guard: memguard.FromEnv()})
}

// KernelOptions configures a standalone kernel invocation.
type KernelOptions struct {
	// MemoryBudget has Decompose's semantics.
	MemoryBudget int64
	// Workers is the kernel parallelism (0 = GOMAXPROCS).
	Workers int
}

func (o KernelOptions) kernelOptions() kernels.Options {
	opts := Options{MemoryBudget: o.MemoryBudget}
	return kernels.Options{Guard: opts.guard(), Workers: o.Workers}
}

// S3TTMc computes the sparse symmetric tensor-times-same-matrix chain
// Y = X ×₂ Uᵀ ⋯ ×_N Uᵀ with the SymProp kernel, returning the compact
// partially symmetric unfolding Y_p(1) of shape I x C(N-2+R, N-1): row k
// holds the IOU entries of the fully symmetric slice Y(k, :, …, :).
func S3TTMc(x *Tensor, u *Matrix, opts KernelOptions) (*Matrix, error) {
	return kernels.S3TTMcSymProp(x, u, opts.kernelOptions())
}

// S3TTMcTC computes A = Y(1)·C(1)ᵀ (the HOQRI kernel) entirely on compact
// symmetric layouts, returning the I x R matrix A.
func S3TTMcTC(x *Tensor, u *Matrix, opts KernelOptions) (*Matrix, error) {
	res, err := kernels.S3TTMcTC(x, u, opts.kernelOptions())
	if err != nil {
		return nil, err
	}
	return res.A, nil
}

// ExpandChainProduct expands a compact chain-product unfolding (as returned
// by S3TTMc) to the full I x R^{N-1} matrix. Exponential in tensor order —
// intended for small tensors and validation. It panics when the matrix's
// column count does not match the claimed order and rank.
func ExpandChainProduct(yp *Matrix, order, rank int) *Matrix {
	return kernels.ExpandCompactColumns(yp, order, rank)
}

// NewMatrix allocates a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return linalg.NewMatrix(rows, cols) }

// KMeansRows clusters the rows of m into k groups (k-means++), the standard
// post-processing step for hypergraph community detection on the factor U.
func KMeansRows(m *Matrix, k int, seed int64) []int {
	return hypergraph.KMeans(m, k, seed, 0)
}

// ClusterAgreement scores predicted against reference labels,
// permutation-invariantly, in [0, 1].
func ClusterAgreement(reference, predicted []int) float64 {
	return hypergraph.ClusterAgreement(reference, predicted)
}

// NMI returns the normalized mutual information between two labelings in
// [0, 1], the standard community-detection quality metric.
func NMI(a, b []int) float64 { return hypergraph.NMI(a, b) }

// CoOccurrence projects the symmetric tensor to its weighted pairwise
// co-occurrence graph (dense I x I adjacency) — the classical baseline the
// tensor pipeline is compared against.
func CoOccurrence(x *Tensor) *Matrix { return hypergraph.CoOccurrence(x) }

// SpectralCluster clusters a weighted undirected graph into k groups via
// the normalized Laplacian (Ng-Jordan-Weiss).
func SpectralCluster(adj *Matrix, k int, seed int64) ([]int, error) {
	return hypergraph.SpectralCluster(adj, k, seed)
}

// HOSVDFactor computes the symmetric HOSVD factor (the R leading left
// singular vectors of the mode-1 unfolding) directly, without running a
// full decomposition. Large dimensions automatically use matrix-free
// subspace iteration.
func HOSVDFactor(x *Tensor, rank int) (*Matrix, error) {
	return tucker.HOSVDInit(x, rank, memguard.FromEnv())
}

// CPOptions configures a symmetric CP (canonical polyadic) decomposition.
type CPOptions struct {
	// Rank is the CP rank (number of symmetric rank-1 components).
	Rank int
	// MaxIters bounds the ALS sweeps (default 100).
	MaxIters int
	// Tol stops when the fit improvement drops below it (0 = run all).
	Tol float64
	// Seed drives the random initialization.
	Seed int64
	// Workers is the kernel parallelism (0 = GOMAXPROCS).
	Workers int
}

// CPResult is a completed symmetric CP decomposition:
// X ≈ Σ_r Lambda[r] · U[:,r]^{⊗N}.
type CPResult = cpd.Result

// DecomposeCP computes a symmetric CP decomposition with ALS on the
// symmetric MTTKRP kernel — the paper's future-work direction of
// propagating symmetry through other decompositions. The elementwise
// products of CP are permutation-invariant, so each unique non-zero
// contributes a single multinomially weighted term.
func DecomposeCP(x *Tensor, opts CPOptions) (*CPResult, error) {
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("symprop: invalid tensor (did you call Canonicalize?): %w", err)
	}
	return cpd.Decompose(x, cpd.Options{
		Rank:     opts.Rank,
		MaxIters: opts.MaxIters,
		Tol:      opts.Tol,
		Seed:     opts.Seed,
		Workers:  opts.Workers,
	})
}

// ReadCOOTensor parses a general sparse tensor in the FROSTT .tns
// convention (1-based "i1 ... iN value" lines, no header) and compresses
// it to the symmetric format. With tol >= 0, permutation duplicates must
// agree within the relative tolerance; a negative tol forces
// symmetrization by averaging.
func ReadCOOTensor(r io.Reader, tol float64) (*Tensor, error) {
	return spsym.ReadCOO(r, tol)
}
