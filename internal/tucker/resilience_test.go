package tucker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// resumableDrivers enumerates the drivers with full checkpoint/resume
// support (the CSS and n-ary ablation variants are excluded by design:
// they exist for one-shot benchmark comparisons).
func resumableDrivers() []struct {
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
	}
}

// TestCancelReturnsTypedError cancels via the iteration site and checks the
// *CanceledError contract: errors.Is matches both ErrCanceled and the
// context error, and the partial result holds exactly the completed
// iterations.
func TestCancelReturnsTypedError(t *testing.T) {
	x := testTensor(t, 3, 10, 40, 9)
	for _, d := range resumableDrivers() {
		t.Run(d.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			disarm := faultinject.Arm(faultinject.SiteIteration, func(p any) error {
				if p.(int) == 3 {
					cancel()
				}
				return nil
			})
			defer disarm()
			_, err := d.run(x, Options{Rank: 3, MaxIters: 10, Seed: 2, Ctx: ctx})
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v does not unwrap to *CanceledError", err)
			}
			if ce.Iters != 3 {
				t.Errorf("Iters = %d, want 3", ce.Iters)
			}
			if ce.Partial == nil || len(ce.Partial.Objective) != 3 {
				t.Errorf("partial result missing or wrong length")
			}
			if ce.CheckpointPath != "" {
				t.Errorf("CheckpointPath = %q with checkpointing disabled", ce.CheckpointPath)
			}
		})
	}
}

// TestResumeBitIdenticalEveryK is the resume property test: for every
// driver and every split point k, running k iterations, snapshotting, and
// resuming to N must reproduce the straight N-iteration run bit for bit —
// traces and final factor.
func TestResumeBitIdenticalEveryK(t *testing.T) {
	const n = 6
	x := testTensor(t, 3, 12, 60, 10)
	base := Options{Rank: 3, MaxIters: n, Seed: 4, Workers: 2}
	for _, d := range resumableDrivers() {
		t.Run(d.name, func(t *testing.T) {
			straight, err := d.run(x, base)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < n; k++ {
				ckpt := filepath.Join(t.TempDir(), fmt.Sprintf("k%d.ckpt", k))
				opts := base
				opts.MaxIters = k
				opts.CheckpointPath = ckpt
				opts.CheckpointEvery = 1
				if _, err := d.run(x, opts); err != nil {
					t.Fatalf("k=%d prefix run: %v", k, err)
				}
				state, err := checkpoint.Load(ckpt)
				if err != nil {
					t.Fatalf("k=%d load: %v", k, err)
				}
				if state.Iteration != k {
					t.Fatalf("k=%d snapshot at iteration %d", k, state.Iteration)
				}
				opts = base
				opts.Resume = state
				resumed, err := d.run(x, opts)
				if err != nil {
					t.Fatalf("k=%d resume: %v", k, err)
				}
				if len(resumed.RelError) != len(straight.RelError) {
					t.Fatalf("k=%d: resumed trace has %d entries, straight %d",
						k, len(resumed.RelError), len(straight.RelError))
				}
				for i := range straight.RelError {
					if math.Float64bits(resumed.RelError[i]) != math.Float64bits(straight.RelError[i]) {
						t.Fatalf("k=%d: trace diverges at iteration %d: %x vs %x",
							k, i, math.Float64bits(resumed.RelError[i]), math.Float64bits(straight.RelError[i]))
					}
				}
				for i := range straight.U.Data {
					if math.Float64bits(resumed.U.Data[i]) != math.Float64bits(straight.U.Data[i]) {
						t.Fatalf("k=%d: factor diverges at entry %d", k, i)
					}
				}
			}
		})
	}
}

// TestCancelThenResume interrupts a checkpointed run mid-flight and resumes
// from the snapshot named in the typed error, expecting the straight run's
// trace bit for bit — the in-process version of the CLI SIGINT smoke test.
func TestCancelThenResume(t *testing.T) {
	const n = 6
	x := testTensor(t, 3, 12, 60, 11)
	base := Options{Rank: 3, MaxIters: n, Seed: 5, Workers: 2}
	straight, err := HOOI(x, base)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := faultinject.Arm(faultinject.SiteIteration, func(p any) error {
		if p.(int) == 3 {
			cancel()
		}
		return nil
	})
	opts := base
	opts.Ctx = ctx
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	opts.CheckpointEvery = 10 // periodic snapshots off; only the cancel-exit one
	_, err = HOOI(x, opts)
	disarm()
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if ce.CheckpointPath != opts.CheckpointPath {
		t.Fatalf("cancel did not write the snapshot: %q", ce.CheckpointPath)
	}

	state, err := checkpoint.Load(ce.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if state.Iteration != 3 {
		t.Fatalf("snapshot at iteration %d, want 3", state.Iteration)
	}
	opts = base
	opts.Resume = state
	resumed, err := HOOI(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range straight.RelError {
		if math.Float64bits(resumed.RelError[i]) != math.Float64bits(straight.RelError[i]) {
			t.Fatalf("trace diverges at iteration %d after cancel+resume", i)
		}
	}
}

// TestResumeMismatchRejected checks that a snapshot cannot be resumed into
// a run it does not describe: wrong algorithm, or any option change that
// alters the arithmetic (here: the seed).
func TestResumeMismatchRejected(t *testing.T) {
	x := testTensor(t, 3, 10, 40, 12)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opts := Options{Rank: 3, MaxIters: 3, Seed: 2, CheckpointPath: ckpt, CheckpointEvery: 1}
	if _, err := HOOI(x, opts); err != nil {
		t.Fatal(err)
	}
	state, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	cross := Options{Rank: 3, MaxIters: 6, Seed: 2, Resume: state}
	if _, err := HOQRI(x, cross); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("cross-algorithm resume: got %v, want ErrMismatch", err)
	}
	reseeded := Options{Rank: 3, MaxIters: 6, Seed: 3, Resume: state}
	if _, err := HOOI(x, reseeded); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("reseeded resume: got %v, want ErrMismatch", err)
	}
}

// TestFingerprintSensitivity pins what the snapshot fingerprint must react
// to (tensor contents, rank, seed, workers) and what it must ignore
// (MaxIters, Tol — so a resume may extend the run).
func TestFingerprintSensitivity(t *testing.T) {
	x := testTensor(t, 3, 10, 40, 13)
	opts := Options{Rank: 3, MaxIters: 5, Tol: 1e-6, Seed: 2, Workers: 2}
	fp := Fingerprint("hooi", x, &opts)

	same := opts
	same.MaxIters = 50
	same.Tol = 0
	if Fingerprint("hooi", x, &same) != fp {
		t.Error("fingerprint must ignore MaxIters and Tol")
	}
	for name, mut := range map[string]func(*Options){
		"rank":    func(o *Options) { o.Rank = 4 },
		"seed":    func(o *Options) { o.Seed = 3 },
		"workers": func(o *Options) { o.Workers = 3 },
	} {
		changed := opts
		mut(&changed)
		if Fingerprint("hooi", x, &changed) == fp {
			t.Errorf("fingerprint must react to %s", name)
		}
	}
	if Fingerprint("hoqri", x, &opts) == fp {
		t.Error("fingerprint must react to the algorithm")
	}
	y := testTensor(t, 3, 10, 40, 14)
	if Fingerprint("hooi", y, &opts) == fp {
		t.Error("fingerprint must react to the tensor")
	}
}

// TestFingerprintGolden pins Fingerprint to values written by earlier
// releases for a fixed tensor and options, per algorithm, so snapshots and
// spooled jobs they wrote still resume instead of being discarded as
// mismatched. A change here orphans every existing checkpoint.
func TestFingerprintGolden(t *testing.T) {
	x := spsym.New(3, 6)
	x.Append([]int{0, 1, 2}, 1.5)
	x.Append([]int{0, 0, 3}, -0.25)
	x.Append([]int{1, 4, 5}, 2)
	x.Append([]int{2, 2, 2}, 0.75)
	x.Canonicalize()
	opts := Options{Rank: 2, Workers: 2, Seed: 7}
	for _, c := range []struct {
		algo string
		want uint64
	}{
		{"hooi", 0xe87670c069b16c41},
		{"hoqri", 0xcce9e3ea09caed5f},
		{"hooi-css", 0x9164ae45444e47bf},
		{"hoqri-nary", 0x6a3b4debb31159fc},
		{"hooi-randomized", 0xdc9d280369c78537},
	} {
		if got := Fingerprint(c.algo, x, &opts); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x", c.algo, got, c.want)
		}
	}
}

// TestBudgetRetryDegrades injects one guard rejection and checks the
// one-shot degradation: the run recovers at workers=1 on a single engine,
// records the retry in Health, and still produces a valid factor.
func TestBudgetRetryDegrades(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 15)
	disarm := faultinject.Arm(faultinject.SiteGuardReserve,
		faultinject.OnHit(1, func(any) error { return errors.New("injected rejection") }))
	defer disarm()
	res, err := HOOI(x, Options{Rank: 3, MaxIters: 5, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.BudgetRetries != 1 {
		t.Errorf("BudgetRetries = %d, want 1", res.Health.BudgetRetries)
	}
	if len(res.Health.Events) == 0 {
		t.Error("degradation not recorded in Health.Events")
	}
	if e := linalg.OrthonormalityError(res.U); e > 1e-9 {
		t.Errorf("degraded run produced non-orthonormal factor: %v", e)
	}
}

// TestNaNOutputJitterRecovery poisons one kernel output with a NaN and
// checks the sentinel: one jittered restart, then a clean finish with
// finite traces.
func TestNaNOutputJitterRecovery(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 16)
	disarm := faultinject.Arm(faultinject.SiteKernelOutput,
		faultinject.OnHit(1, func(p any) error {
			p.(*linalg.Matrix).Data[0] = math.NaN()
			return nil
		}))
	defer disarm()
	res, err := HOOI(x, Options{Rank: 3, MaxIters: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.JitterRestarts != 1 {
		t.Errorf("JitterRestarts = %d, want 1", res.Health.JitterRestarts)
	}
	for i, f := range res.Objective {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("objective[%d] non-finite after recovery: %v", i, f)
		}
	}
	if idx := nonFinite(res.U); idx >= 0 {
		t.Errorf("recovered factor still non-finite at %d", idx)
	}
}

// TestPersistentNaNBreaksDown keeps poisoning every kernel output; after
// the single jittered restart fails too, the run must die with the typed
// breakdown error rather than loop or return NaNs.
func TestPersistentNaNBreaksDown(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 17)
	disarm := faultinject.Arm(faultinject.SiteKernelOutput, func(p any) error {
		p.(*linalg.Matrix).Data[0] = math.NaN()
		return nil
	})
	defer disarm()
	_, err := HOOI(x, Options{Rank: 3, MaxIters: 5, Seed: 2})
	if !errors.Is(err, ErrNumericBreakdown) {
		t.Fatalf("got %v, want ErrNumericBreakdown", err)
	}
}

// TestObserveObjective unit-tests the regression/stall classifier.
func TestObserveObjective(t *testing.T) {
	x := testTensor(t, 3, 8, 20, 18)
	opts := Options{Rank: 2, MaxIters: 5, Seed: 1}
	if err := opts.normalize(x); err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	rs := newRun("hooi", x, &opts, res, nil)

	res.Objective = []float64{10}
	rs.observeObjective(0) // single entry: nothing to compare
	res.Objective = append(res.Objective, 9)
	rs.observeObjective(1) // healthy descent
	res.Objective = append(res.Objective, 9)
	rs.observeObjective(2) // exact stall
	res.Objective = append(res.Objective, 9.5)
	rs.observeObjective(3) // regression
	res.Objective = append(res.Objective, 9.5+1e-18)
	rs.observeObjective(4) // movement below round-off: stall, not regression

	h := res.Health
	if h.Regressions != 1 || h.StallIters != 2 {
		t.Errorf("Regressions=%d StallIters=%d, want 1 and 2 (events: %v)",
			h.Regressions, h.StallIters, h.Events)
	}
}

// TestHOQRISkipsFinalPassWhenConverged checks the converged-run
// optimization: a run that stops via Tol or the callback must not spend an
// extra kernel sweep rebuilding an already consistent core.
func TestHOQRISkipsFinalPassWhenConverged(t *testing.T) {
	// Full rank is exact, so the tolerance triggers after two sweeps.
	x := testTensor(t, 3, 6, 20, 19)
	hook, hits := faultinject.Counter()
	disarm := faultinject.Arm(faultinject.SiteKernelOutput, hook)
	defer disarm()

	res, err := HOQRI(x, Options{Rank: 6, MaxIters: 50, Tol: 1e-8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("full-rank run did not converge in %d iterations", res.Iters)
	}
	if got, want := hits(), int64(res.Iters); got != want {
		t.Errorf("%d kernel passes for %d iterations; the converged run must skip the final rebuild",
			got, res.Iters)
	}
}
