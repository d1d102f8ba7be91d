package kernels

// A kernel call's bits do not depend on the execution pool it borrows.
// The job server runs every job of a runner on one exec.Pool of
// JobWorkers goroutines, whatever the job's own Workers, so a plan of w
// slots often runs on a pool of another size: a smaller one queues the
// slots for its resident workers, a larger one leaves some idle. These
// tests hold calls on borrowed pools of 1 to 8 goroutines to the bits of
// the same call on transient goroutines (Options.Exec nil).

import (
	"fmt"
	"math"
	"testing"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// borrowedPoolSizes are the resident goroutine counts the tests lend the
// kernels: below, at and above the worker counts they request.
var borrowedPoolSizes = []int{1, 2, 4, 8}

// TestBorrowedPoolDeterminismMatrix: for every (fixture, workers, fusion)
// cell, a call on a borrowed pool of each size reproduces the transient
// call bit for bit, both on fresh caches and on warm ones. A warm cell
// makes two calls on one pool, plan cache, workspace pool and schedule
// cache, so the second call reuses what the first left behind, as the
// sweeps of a Tucker run do. The fusion column "auto" is the default
// dispatch: the rank-3 fixtures run the lattice interpreter, order3r4 the
// fused evaluator. "off" takes the lex walk (lexWalk), which switches
// the fused evaluators off, so order3r4 runs the interpreter too; both
// columns are held to the default transient bits.
func TestBorrowedPoolDeterminismMatrix(t *testing.T) {
	fixtures := []struct {
		name                  string
		order, dim, nnz, rank int
	}{
		{"order3", 3, 48, 900, 3},
		{"order4", 4, 24, 400, 3},
		{"order3r4", 3, 48, 900, 4}, // hits the fused (3, 4) evaluator
	}
	for _, fx := range fixtures {
		x, u := dyadicCase(t, fx.order, fx.dim, fx.nnz, fx.rank, 7)
		for _, workers := range []int{1, 2, 7} {
			ref, err := S3TTMcSymProp(x, u, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, fusion := range []string{"auto", "off"} {
				opts := Options{Workers: workers}
				if fusion == "off" {
					opts.lexWalk = true
				}
				for _, caches := range []string{"fresh", "warm"} {
					calls := 1
					if caches == "warm" {
						calls = 2
					}
					for _, size := range borrowedPoolSizes {
						name := fmt.Sprintf("%s/w%d/%s/%s/p%d", fx.name, workers, caches, fusion, size)
						t.Run(name, func(t *testing.T) {
							pool := exec.NewPool(size)
							defer pool.Close()
							o := opts
							o.Exec = pool
							if caches == "warm" {
								o.PlanCache = &css.Cache{}
								o.Pool = &WorkspacePool{}
								o.Schedules = &ScheduleCache{}
							}
							for call := 1; call <= calls; call++ {
								got, err := S3TTMcSymProp(x, u, o)
								if err != nil {
									t.Fatal(err)
								}
								requireBitEqual(t, fmt.Sprintf("%s call %d", name, call), ref, got)
							}
						})
					}
				}
			}
		}
	}
}

// TestBorrowedPoolArbitraryValues: the pool only hosts the slots, so bit
// identity holds for standard-normal values too, with no dyadic crutch,
// for both the SymProp and CSS kernels, including workers beyond the row
// count and pools larger than the clamped worker count.
func TestBorrowedPoolArbitraryValues(t *testing.T) {
	cases := []struct {
		order, dim, nnz, rank, workers, size int
	}{
		{3, 40, 600, 4, 4, 2},
		{3, 40, 600, 4, 7, 8},
		{4, 20, 300, 2, 3, 4},
		{5, 12, 150, 2, 5, 3},
		{3, 6, 20, 3, 16, 8}, // workers clamp to dim
		{3, 9, 4, 2, 8, 4},   // workers clamp to nnz
	}
	for _, c := range cases {
		x, u := normalCase(t, c.order, c.dim, c.nnz, c.rank, 13, false)
		for _, compact := range []bool{true, false} {
			name := fmt.Sprintf("o%dd%dn%dr%d/w%d/p%d/compact=%v", c.order, c.dim, c.nnz, c.rank, c.workers, c.size, compact)
			t.Run(name, func(t *testing.T) {
				kernel := S3TTMcCSS
				if compact {
					kernel = S3TTMcSymProp
				}
				ref, err := kernel(x, u, Options{Workers: c.workers})
				if err != nil {
					t.Fatal(err)
				}
				pool := exec.NewPool(c.size)
				defer pool.Close()
				got, err := kernel(x, u, Options{Workers: c.workers, Exec: pool})
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, name, ref, got)
			})
		}
	}
}

// TestBorrowedPoolEmptyTensor covers the nnz == 0 early return on a
// borrowed pool: a zero matrix of the transient call's shape.
func TestBorrowedPoolEmptyTensor(t *testing.T) {
	x := &spsym.Tensor{Order: 3, Dim: 5}
	u := linalg.NewMatrix(5, 2)
	pool := exec.NewPool(4)
	defer pool.Close()
	ref, err := S3TTMcSymProp(x, u, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := S3TTMcSymProp(x, u, Options{Workers: 3, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "empty tensor", ref, got)
}

// TestBorrowedPoolMetrics: the plans of a call record the slots the call
// asked for, not the pool's goroutines. Four workers on a two-goroutine
// pool run s3ttmc.owner as four busy slots, then schedule.reduce.
func TestBorrowedPoolMetrics(t *testing.T) {
	const workers = 4
	x, u := dyadicCase(t, 3, 48, 900, 3, 5)
	m := obs.New()
	pool := exec.NewPool(2)
	defer pool.Close()
	if _, err := S3TTMcSymProp(x, u, Options{Workers: workers, Exec: pool, Obs: m}); err != nil {
		t.Fatal(err)
	}
	plans := map[string]obs.PlanMetrics{}
	for _, pm := range m.Snapshot() {
		plans[pm.Name] = pm
	}
	for _, want := range []string{"s3ttmc.owner", "schedule.reduce"} {
		if _, ok := plans[want]; !ok {
			t.Fatalf("plan %q missing from snapshot (have %v)", want, plans)
		}
	}
	if owner := plans["s3ttmc.owner"]; owner.WorkerSpans != workers || owner.BusyNs <= 0 {
		t.Fatalf("s3ttmc.owner recorded %d slots and %d busy ns, want %d slots and busy time",
			owner.WorkerSpans, owner.BusyNs, workers)
	}
}

// TestBorrowedPoolBudget: the guard charges a call the same on a borrowed
// pool as on transient goroutines. Under every memory budget from the
// smallest fitting one to twice the full-worker one, the call on a pool
// fits exactly when the transient call does, shrinking its workers to fit
// the spill buffers the same way, returns the same bits, and leaves
// nothing reserved.
func TestBorrowedPoolBudget(t *testing.T) {
	const workers = 4
	x, u := normalCase(t, 3, 60, 900, 4, 5, false)
	for _, k := range []struct {
		name   string
		kernel func(*spsym.Tensor, *linalg.Matrix, Options) (*linalg.Matrix, error)
	}{
		{"symprop", S3TTMcSymProp},
		{"css", S3TTMcCSS},
	} {
		run := func(t *testing.T, budget int64, pool *exec.Pool, m *obs.Metrics) (*linalg.Matrix, error) {
			t.Helper()
			g := memguard.New(budget)
			y, err := k.kernel(x, u, Options{Workers: workers, Guard: g, Exec: pool, Obs: m})
			if used := g.Used(); used != 0 {
				t.Fatalf("%s at budget %d: %d bytes still reserved after the call", k.name, budget, used)
			}
			return y, err
		}
		// leaves is the worker count the transient call runs at under
		// budget, 0 when it does not fit; it never falls as budget grows.
		leaves := func(budget int64) int64 {
			m := obs.New()
			if _, err := run(t, budget, nil, m); err != nil {
				return 0
			}
			for _, pm := range m.Snapshot() {
				if pm.Name == "s3ttmc.owner" {
					return pm.Items
				}
			}
			t.Fatalf("%s: no s3ttmc.owner plan recorded", k.name)
			return 0
		}
		// smallest bisects for the least budget satisfying ok, which holds
		// at every budget above it (a budget of 0 disables the guard).
		smallest := func(ok func(int64) bool) int64 {
			lo, hi := int64(1), int64(1<<30)
			for lo < hi {
				if mid := (lo + hi) / 2; ok(mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return lo
		}
		fit := smallest(func(b int64) bool { return leaves(b) > 0 })
		full := smallest(func(b int64) bool { return leaves(b) == workers })
		if fit >= full {
			t.Fatalf("%s: smallest fitting budget %d, full-worker budget %d: the range has no shrunk runs", k.name, fit, full)
		}
		budgets := []int64{fit - 1, fit, full - 1, full, 2 * full}
		for i := int64(1); i < 16; i++ {
			budgets = append(budgets, fit+i*(2*full-fit)/16)
		}
		for _, size := range borrowedPoolSizes[:3] {
			t.Run(fmt.Sprintf("%s/p%d", k.name, size), func(t *testing.T) {
				pool := exec.NewPool(size)
				defer pool.Close()
				for _, budget := range budgets {
					want, wantErr := run(t, budget, nil, nil)
					got, err := run(t, budget, pool, nil)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("budget %d: pooled err %v, transient err %v", budget, err, wantErr)
					}
					if err == nil {
						requireBitEqual(t, fmt.Sprintf("budget %d", budget), want, got)
					}
				}
			})
		}
	}
}

// FuzzBorrowedPoolEquivalence: on arbitrary random tensors, calls on
// pools of one and four goroutines agree bit for bit with the transient
// call.
func FuzzBorrowedPoolEquivalence(f *testing.F) {
	f.Add(int64(1), 3, 5, 3, 9, 4)
	f.Add(int64(7), 4, 4, 2, 6, 3)
	f.Add(int64(42), 5, 6, 2, 12, 5)
	f.Fuzz(func(t *testing.T, seed int64, order, dim, rank, nnz, workers int) {
		order = 2 + absInt(order)%4
		dim = 1 + absInt(dim)%8
		rank = 1 + absInt(rank)%4
		nnz = 1 + absInt(nnz)%16
		workers = 1 + absInt(workers)%7
		x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal})
		if err != nil {
			t.Skip()
		}
		u := linalg.NewMatrix(dim, rank)
		for i := range u.Data {
			u.Data[i] = math.Sin(float64(seed) + float64(i)*0.9)
		}
		ref, err := S3TTMcSymProp(x, u, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 4} {
			pool := exec.NewPool(size)
			got, err := S3TTMcSymProp(x, u, Options{Workers: workers, Exec: pool})
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, fmt.Sprintf("pool size %d", size), ref, got)
		}
	})
}

// absInt is |v|. math.MinInt stays negative, but its remainders above
// still give a valid shape (workers 0 means GOMAXPROCS).
func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
