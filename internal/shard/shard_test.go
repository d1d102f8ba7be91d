package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// dyadicTensor mirrors the kernels determinism fixtures: dyadic-rational
// values and factors make float addition associative, so results are
// exact at every worker count.
func dyadicTensor(t testing.TB, order, dim, nnz, r, seed int) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: int64(seed), Values: spsym.ValueOnes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Values {
		x.Values[i] = float64(1 + i%5)
	}
	u := linalg.NewMatrix(dim, r)
	for i := range u.Data {
		u.Data[i] = float64((i*7)%17-8) / 8
	}
	return x, u
}

// normalTensor draws arbitrary (non-dyadic) values: the bit-identity of
// the sharded path does not depend on associativity tricks.
func normalTensor(t testing.TB, order, dim, nnz, r, seed int) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: int64(seed), Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	u := linalg.NewMatrix(dim, r)
	rng := func(i int) float64 { return math.Sin(float64(i)*0.7) + 0.1 }
	for i := range u.Data {
		u.Data[i] = rng(i)
	}
	return x, u
}

func mustEqualBits(t *testing.T, want, got *linalg.Matrix, label string) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(w) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: entry %d differs: % .17g vs % .17g", label, i, w, got.Data[i])
		}
	}
}

// TestShardDeterminismMatrix is the shards dimension of the determinism
// matrix: for every (fixture, workers, fusion) cell, the sharded backend
// at shards ∈ {1, 2, 4, 8} must reproduce the single-engine kernel bit for
// bit, both on fresh caches and on warm ones: a warm cell hands both calls
// one plan cache, workspace pool and schedule cache, so the second call
// reuses the plans, workspaces, schedule and spill buffers the first call
// filled, from every engine at once (the sweep-to-sweep pattern of a
// sharded Tucker run). The fusion column "auto" is the default dispatch:
// the rank-3 fixtures run the lattice interpreter, order3r4 the fused
// evaluator. "off" takes the IterRecursive ablation, which switches the
// fused evaluators off, so order3r4 runs the interpreter too; both columns
// are held to the default single-engine bits.
func TestShardDeterminismMatrix(t *testing.T) {
	fixtures := []struct {
		name                  string
		order, dim, nnz, rank int
	}{
		{"order3", 3, 48, 900, 3},
		{"order4", 4, 24, 400, 3},
		{"order3r4", 3, 48, 900, 4}, // hits the fused (3, 4) evaluator
	}
	for _, fx := range fixtures {
		x, u := dyadicTensor(t, fx.order, fx.dim, fx.nnz, fx.rank, 7)
		for _, workers := range []int{1, 2, 7} {
			ref, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, fusion := range []string{"auto", "off"} {
				opts := kernels.Options{Workers: workers}
				if fusion == "off" {
					opts.Iteration = kernels.IterRecursive
				}
				for _, engine := range []string{"fresh", "warm"} {
					calls := 1
					if engine == "warm" {
						calls = 2
					}
					for _, shards := range []int{1, 2, 4, 8} {
						name := fmt.Sprintf("%s/w%d/%s/%s/s%d", fx.name, workers, engine, fusion, shards)
						t.Run(name, func(t *testing.T) {
							e := New(shards, workers)
							defer e.Close()
							o := opts
							o.Backend = e
							if engine == "warm" {
								o.PlanCache = &css.Cache{}
								o.Pool = &kernels.WorkspacePool{}
								o.Schedules = &kernels.ScheduleCache{}
							}
							for call := 1; call <= calls; call++ {
								got, err := kernels.S3TTMcSymProp(x, u, o)
								if err != nil {
									t.Fatal(err)
								}
								mustEqualBits(t, ref, got, fmt.Sprintf("%s call %d", name, call))
							}
						})
					}
				}
			}
		}
	}
}

// TestShardBitIdenticalArbitraryValues is the stronger claim: sharding
// replays the exact single-engine accumulation order, so bit identity
// holds for arbitrary float values — no dyadic crutch — across both the
// SymProp and CSS kernels, including workers beyond the row count and
// shard counts beyond the leaf count.
func TestShardBitIdenticalArbitraryValues(t *testing.T) {
	cases := []struct {
		order, dim, nnz, rank, workers, shards int
	}{
		{3, 40, 600, 4, 4, 2},
		{3, 40, 600, 4, 7, 8},
		{4, 20, 300, 2, 3, 4},
		{5, 12, 150, 2, 5, 3},
		{3, 6, 20, 3, 16, 8}, // workers clamp to dim, shards exceed leaves
		{3, 9, 4, 2, 8, 4},   // workers clamp to nnz
	}
	for _, c := range cases {
		x, u := normalTensor(t, c.order, c.dim, c.nnz, c.rank, 13)
		for _, compact := range []bool{true, false} {
			name := fmt.Sprintf("o%dd%dn%dr%d/w%d/s%d/compact=%v", c.order, c.dim, c.nnz, c.rank, c.workers, c.shards, compact)
			t.Run(name, func(t *testing.T) {
				kernel := kernels.S3TTMcCSS
				if compact {
					kernel = kernels.S3TTMcSymProp
				}
				ref, err := kernel(x, u, kernels.Options{Workers: c.workers})
				if err != nil {
					t.Fatal(err)
				}
				e := New(c.shards, c.workers)
				defer e.Close()
				got, err := kernel(x, u, kernels.Options{Workers: c.workers, Backend: e})
				if err != nil {
					t.Fatal(err)
				}
				mustEqualBits(t, ref, got, name)
			})
		}
	}
}

// TestShardEmptyTensor covers the nnz == 0 early return: a zero matrix of
// the single-engine shape.
func TestShardEmptyTensor(t *testing.T) {
	x := &spsym.Tensor{Order: 3, Dim: 5}
	u := linalg.NewMatrix(5, 2)
	e := New(4, 3)
	defer e.Close()
	ref, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 3, Backend: e})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualBits(t, ref, got, "empty tensor")
}

// TestShardFaultSites: the shard.merge site fires once the engines' leaf
// groups join, with the engine count, and its error aborts the call.
func TestShardFaultSites(t *testing.T) {
	x, u := dyadicTensor(t, 3, 24, 200, 2, 3)
	run := func() (*linalg.Matrix, error) {
		e := New(4, 4)
		defer e.Close()
		return kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 4, Backend: e})
	}

	t.Run("merge-error", func(t *testing.T) {
		boom := errors.New("merge quorum lost")
		defer faultinject.Arm(faultinject.SiteShardMerge, func(payload any) error {
			if payload.(int) != 4 {
				t.Errorf("merge payload = %v, want 4", payload)
			}
			return boom
		})()
		if _, err := run(); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})
}

// TestShardGramProducts: the banded products equal the single-engine
// linalg calls bit for bit, shard counts beyond the row count included.
func TestShardGramProducts(t *testing.T) {
	a := linalg.NewMatrix(37, 11)
	b := linalg.NewMatrix(37, 5)
	for i := range a.Data {
		a.Data[i] = math.Cos(float64(i) * 0.31)
	}
	for i := range b.Data {
		b.Data[i] = math.Sin(float64(i)*0.17) - 0.2
	}
	for _, shards := range []int{1, 2, 3, 8, 16} {
		e := New(shards, 4)
		got, err := e.MulTN(a, b, kernels.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, linalg.MulTN(a, b), got, fmt.Sprintf("MulTN s=%d", shards))

		c := linalg.NewMatrix(23, 11)
		for i := range c.Data {
			c.Data[i] = math.Sin(float64(i) * 0.13)
		}
		w := make([]float64, 11)
		for i := range w {
			w[i] = float64(i%3) + 0.25
		}
		gotW, err := e.MulNTWeighted(a, c, w, kernels.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, linalg.MulNTWeighted(a, c, w), gotW, fmt.Sprintf("MulNTWeighted s=%d", shards))
		e.Close()
	}
}

// TestShardMetrics: a sharded call runs shard.fanout, each engine's leaf
// group as s3ttmc.shard[i], and then the single-engine schedule.reduce;
// the per-shard plans record their own busy time.
func TestShardMetrics(t *testing.T) {
	x, u := dyadicTensor(t, 3, 48, 900, 3, 5)
	m := obs.New()
	e := New(2, 4)
	defer e.Close()
	if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 4, Backend: e, Obs: m}); err != nil {
		t.Fatal(err)
	}
	plans := map[string]obs.PlanMetrics{}
	for _, pm := range m.Snapshot() {
		plans[pm.Name] = pm
	}
	for _, want := range []string{"shard.fanout", "schedule.reduce", "s3ttmc.shard[0]", "s3ttmc.shard[1]"} {
		if _, ok := plans[want]; !ok {
			t.Fatalf("plan %q missing from snapshot (have %v)", want, plans)
		}
	}
	for _, name := range []string{"s3ttmc.shard[0]", "s3ttmc.shard[1]"} {
		if plans[name].BusyNs <= 0 {
			t.Fatalf("%s recorded no busy time: %+v", name, plans[name])
		}
	}
}

// TestShardBudgetMatchesSingleEngine: a sharded call is charged exactly
// like a single-engine one, so under every memory budget from the single
// engine's smallest fitting one to twice its full-worker one, the sharded
// call fits exactly when the single engine does — shrinking its workers
// to fit the spill buffers the same way — and returns the same bits.
func TestShardBudgetMatchesSingleEngine(t *testing.T) {
	const workers = 4
	x, u := normalTensor(t, 3, 60, 900, 4, 5)
	for _, k := range []struct {
		name   string
		kernel func(*spsym.Tensor, *linalg.Matrix, kernels.Options) (*linalg.Matrix, error)
	}{
		{"symprop", kernels.S3TTMcSymProp},
		{"css", kernels.S3TTMcCSS},
	} {
		run := func(t *testing.T, budget int64, b kernels.Backend, m *obs.Metrics) (*linalg.Matrix, error) {
			t.Helper()
			g := memguard.New(budget)
			y, err := k.kernel(x, u, kernels.Options{Workers: workers, Guard: g, Backend: b, Obs: m})
			if used := g.Used(); used != 0 {
				t.Fatalf("%s at budget %d: %d bytes still reserved after the call", k.name, budget, used)
			}
			return y, err
		}
		// leaves is the worker count the single engine runs at under
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
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/s%d", k.name, shards), func(t *testing.T) {
				e := New(shards, workers)
				defer e.Close()
				for _, budget := range budgets {
					want, wantErr := run(t, budget, nil, nil)
					got, err := run(t, budget, e, nil)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("budget %d: sharded err %v, single-engine err %v", budget, err, wantErr)
					}
					if err == nil {
						mustEqualBits(t, want, got, fmt.Sprintf("budget %d", budget))
					}
				}
			})
		}
	}
}

// FuzzShardEquivalence is the fuzz oracle of ISSUE 9: shards=4 and
// shards=1 must agree bit for bit with each other and with the
// single-engine kernel on arbitrary random tensors.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(int64(1), 3, 5, 3, 9, 4)
	f.Add(int64(7), 4, 4, 2, 6, 3)
	f.Add(int64(42), 5, 6, 2, 12, 5)
	f.Fuzz(func(t *testing.T, seed int64, order, dim, rank, nnz, workers int) {
		order = 2 + abs(order)%4
		dim = 1 + abs(dim)%8
		rank = 1 + abs(rank)%4
		nnz = 1 + abs(nnz)%16
		workers = 1 + abs(workers)%7
		x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal})
		if err != nil {
			t.Skip()
		}
		u := linalg.NewMatrix(dim, rank)
		for i := range u.Data {
			u.Data[i] = math.Sin(float64(seed) + float64(i)*0.9)
		}
		opts := kernels.Options{Workers: workers}
		ref, err := kernels.S3TTMcSymProp(x, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			e := New(shards, workers)
			got, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: workers, Backend: e})
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, ref, got, fmt.Sprintf("shards=%d", shards))
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
