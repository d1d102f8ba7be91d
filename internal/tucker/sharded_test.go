package tucker

// Options.Shards is deprecated and ignored. These tests pin that: any
// value gives the bits of the run without it, under a memory budget too,
// and a checkpoint written under one value resumes under any other.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// shardableDrivers enumerates the drivers these tests run with Shards set.
func shardableDrivers() []struct {
	name string
	run  func(*spsym.Tensor, Options) (*Result, error)
} {
	return []struct {
		name string
		run  func(*spsym.Tensor, Options) (*Result, error)
	}{
		{"hooi", HOOI},
		{"hoqri", HOQRI},
		{"hooi-randomized", HOOIRandomized},
		{"hooi-css", HOOICSS},
	}
}

func mustEqualMatrixBits(t *testing.T, what string, got, want *linalg.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s diverges at entry %d: %x vs %x",
				what, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// TestShardedDriversBitIdentical runs every shardable driver under several
// Shards values and demands the factor, core, and objective trace match the
// run without Shards bit for bit.
func TestShardedDriversBitIdentical(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 21)
	base := Options{Rank: 3, MaxIters: 5, Seed: 7, Workers: 3}
	for _, d := range shardableDrivers() {
		t.Run(d.name, func(t *testing.T) {
			ref, err := d.run(x, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				opts := base
				opts.Shards = shards
				got, err := d.run(x, opts)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				for i := range ref.Objective {
					if math.Float64bits(got.Objective[i]) != math.Float64bits(ref.Objective[i]) {
						t.Fatalf("shards=%d: objective diverges at iteration %d", shards, i)
					}
				}
				mustEqualMatrixBits(t, "U", got.U, ref.U)
				mustEqualMatrixBits(t, "CoreP", got.CoreP, ref.CoreP)
			}
		})
	}
}

// TestShardedResumeAcrossShardCounts checkpoints a run with Shards 4 and
// resumes it under other Shards values: the fingerprint excludes Shards,
// so every combination must reproduce the straight run's trace and factor
// exactly.
func TestShardedResumeAcrossShardCounts(t *testing.T) {
	const n = 6
	x := testTensor(t, 3, 12, 60, 22)
	base := Options{Rank: 3, MaxIters: n, Seed: 8, Workers: 2}
	straight, err := HOQRI(x, base)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "sharded.ckpt")
	prefix := base
	prefix.MaxIters = 3
	prefix.Shards = 4
	prefix.CheckpointPath = ckpt
	prefix.CheckpointEvery = 1
	if _, err := HOQRI(x, prefix); err != nil {
		t.Fatal(err)
	}
	state, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		opts := base
		opts.Shards = shards
		opts.Resume = state
		resumed, err := HOQRI(x, opts)
		if err != nil {
			t.Fatalf("resume with shards=%d: %v", shards, err)
		}
		if len(resumed.RelError) != len(straight.RelError) {
			t.Fatalf("shards=%d: resumed trace has %d entries, straight %d",
				shards, len(resumed.RelError), len(straight.RelError))
		}
		for i := range straight.RelError {
			if math.Float64bits(resumed.RelError[i]) != math.Float64bits(straight.RelError[i]) {
				t.Fatalf("shards=%d: trace diverges at iteration %d", shards, i)
			}
		}
		mustEqualMatrixBits(t, "U", resumed.U, straight.U)
	}
}

// TestShardedBudgetMatchesUnsharded: Shards changes no guard charge, so
// under a tight memory budget a run with Shards takes the same budget
// retries as the run without and ends on the same factor bits. The
// budgets sit where the exact spill charge shrinks the runs' four
// requested workers: 10,552, 14,160 and 17,768 bytes are the least that
// run two, three and four; at 6,000 bytes HOQRI fits only after its one
// retry. Each driver's list holds a budget that runs fewer than four
// workers and one that runs four.
func TestShardedBudgetMatchesUnsharded(t *testing.T) {
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 60, NNZ: 900, Seed: 5, Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	for _, c := range []struct {
		name    string
		run     func(*spsym.Tensor, Options) (*Result, error)
		budgets []int64
	}{
		{"hoqri", HOQRI, []int64{6000, 10551, 10552, 14160, 17767, 17768}},
		{"hooi", HOOI, []int64{10551, 10552, 14159, 14160, 17768}},
	} {
		// ran records the worker counts the unsharded runs took.
		ran := map[int64]bool{}
		for _, budget := range c.budgets {
			t.Run(fmt.Sprintf("%s/%d", c.name, budget), func(t *testing.T) {
				run := func(shards int) (*Result, error) {
					return c.run(x, Options{Rank: 4, MaxIters: 4, Seed: 3, Workers: workers,
						Shards: shards, Guard: memguard.New(budget)})
				}
				ref, refErr := run(0)
				if refErr != nil && !errors.Is(refErr, ErrBudget) {
					t.Fatal(refErr)
				}
				if refErr == nil {
					for _, pm := range ref.PlanMetrics {
						if pm.Name == "s3ttmc.owner" && ref.Health.BudgetRetries == 0 {
							ran[pm.Items/pm.Invocations] = true
						}
					}
				}
				for _, shards := range []int{2, 4} {
					res, err := run(shards)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("shards=%d: err %v, unsharded err %v", shards, err, refErr)
					}
					if err != nil {
						continue
					}
					if res.Health.BudgetRetries != ref.Health.BudgetRetries {
						t.Fatalf("shards=%d: %d budget retries, unsharded %d",
							shards, res.Health.BudgetRetries, ref.Health.BudgetRetries)
					}
					mustEqualMatrixBits(t, fmt.Sprintf("shards=%d U", shards), res.U, ref.U)
				}
			})
		}
		shrunk := false
		for w := range ran {
			shrunk = shrunk || w < workers
		}
		if !shrunk || !ran[workers] {
			t.Errorf("%s: budgets ran worker counts %v; the list must cross a shrink point, running fewer than %d and %d",
				c.name, ran, workers, workers)
		}
	}
}
