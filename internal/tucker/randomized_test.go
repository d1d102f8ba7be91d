package tucker

import (
	"math"
	"runtime"
	"testing"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

func TestHOOIRandomizedBasics(t *testing.T) {
	x := testTensor(t, 3, 10, 30, 101)
	res, err := HOOIRandomized(x, Options{Rank: 3, MaxIters: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := linalg.OrthonormalityError(res.U); e > 1e-8 {
		t.Errorf("U not orthonormal: %v", e)
	}
	// The objective must still be essentially monotone (tiny slack for the
	// approximate subspace step).
	for i := 1; i < len(res.Objective); i++ {
		if res.Objective[i] > res.Objective[i-1]+1e-4*math.Abs(res.Objective[i-1]) {
			t.Errorf("objective increased at iter %d: %v -> %v", i, res.Objective[i-1], res.Objective[i])
		}
	}
}

// Randomized HOOI must converge to the same error level as exact HOOI.
func TestHOOIRandomizedMatchesExact(t *testing.T) {
	x := testTensor(t, 4, 12, 50, 103)
	exact, err := HOOI(x, Options{Rank: 3, MaxIters: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	randomized, err := HOOIRandomized(x, Options{Rank: 3, MaxIters: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := exact.FinalRelError(), randomized.FinalRelError()
	if math.Abs(e1-e2) > 0.02*(e1+e2+1e-12) {
		t.Errorf("final errors diverge: exact %v vs randomized %v", e1, e2)
	}
}

// The whole point: HOOIRandomized runs inside a budget where faithful HOOI
// OOMs (it never builds the full unfolding).
func TestHOOIRandomizedSurvivesWhereHOOIOOMs(t *testing.T) {
	x := testTensor(t, 6, 50, 30, 107)
	guard := memguard.New(4 << 20)
	if _, err := HOOI(x, Options{Rank: 8, MaxIters: 2, Guard: guard, Workers: 2}); err == nil {
		t.Fatal("exact HOOI should OOM at this budget (precondition)")
	}
	res, err := HOOIRandomized(x, Options{Rank: 8, MaxIters: 2, Guard: memguard.New(4 << 20), Workers: 2})
	if err != nil {
		t.Fatalf("randomized HOOI should fit: %v", err)
	}
	if res.Iters != 2 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestHOOIRandomizedValidation(t *testing.T) {
	x := testTensor(t, 3, 5, 10, 109)
	if _, err := HOOIRandomized(x, Options{Rank: 0}); err == nil {
		t.Error("rank 0 must fail")
	}
}

// HOOIRandomized must share one ScheduleCache across its sweeps, as HOOI
// and HOQRI do: without it every sweep rebuilds the owner-computes schedule
// and allocates a fresh I x S_{N-1,R} spill buffer per worker. What a sweep
// allocates at four workers beyond what it allocates at one (which needs
// no spill buffer) must stay below one such buffer.
func TestHOOIRandomizedReusesSpillBuffers(t *testing.T) {
	const rank = 6
	// All-distinct non-zeros share one lattice plan, so the per-worker
	// workspaces are warm after the first sweep.
	x, err := spsym.Random(spsym.RandomOptions{Order: 6, Dim: 40, NNZ: 300, Seed: 31, ForbidRepeats: true})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(workers, sweeps int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := HOOIRandomized(x, Options{Rank: rank, MaxIters: sweeps, Seed: 3, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	const extra = 4
	perSweep := func(workers int) int64 {
		return (allocated(workers, 1+extra) - allocated(workers, 1)) / extra
	}
	spill := int64(x.Dim) * dense.Count(x.Order-1, rank) * 8
	if got := perSweep(4) - perSweep(1); got >= spill {
		t.Errorf("each extra sweep at 4 workers allocates %d bytes more than at 1; one spill buffer is %d", got, spill)
	}
}
