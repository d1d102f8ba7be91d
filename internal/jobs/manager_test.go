package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

// checkGoroutines fails the test if goroutines leak past its end (the
// exec/kernels leak-check idiom; the drain contract promises none).
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, n)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// testTensorText renders a small random symmetric tensor in the inline
// text format job specs carry.
func testTensorText(t *testing.T, order, dim, nnz int, seed int64) string {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := x.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fastRetry is the test retry policy: real backoff shape, negligible wall
// clock, pinned jitter.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Seed: 1}
}

// newManager opens a Manager with test-friendly defaults and closes it at
// cleanup (before the goroutine-leak check runs).
func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = fastRetry()
	}
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = -1 // unlimited unless the test says otherwise
	}
	cfg.Logf = t.Logf
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return m
}

// waitState polls until the job reaches want (fatal on a different
// terminal state or timeout) and returns the final status.
func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func baseSpec(t *testing.T) Spec {
	return Spec{
		Tensor:   testTensorText(t, 3, 8, 25, 1),
		Rank:     3,
		MaxIters: 10,
		Seed:     2,
		Workers:  2,
	}
}

func TestSubmitToCompletion(t *testing.T) {
	checkGoroutines(t)
	m := newManager(t, Config{Runners: 2})
	id, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateSucceeded)
	if st.Iters != 10 || st.RelError <= 0 || st.RelError >= 1 {
		t.Errorf("result summary Iters=%d RelError=%g", st.Iters, st.RelError)
	}
	if st.Attempt != 1 || st.Retries != 0 {
		t.Errorf("clean run recorded Attempt=%d Retries=%d", st.Attempt, st.Retries)
	}
	path, err := m.ResultPath(id)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "% symprop factor matrix 8 x 3\n") {
		t.Errorf("result header: %q", strings.SplitN(string(raw), "\n", 2)[0])
	}
	if got := m.Counters().Value("jobs.succeeded"); got != 1 {
		t.Errorf("jobs.succeeded = %d, want 1", got)
	}
	// The same manifest must survive a reload (what a restart would see).
	man, err := m.spool.LoadManifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateSucceeded || man.Workers != 2 {
		t.Errorf("persisted manifest state=%s workers=%d", man.State, man.Workers)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{})
	for name, spec := range map[string]Spec{
		"no tensor":    {Rank: 2},
		"both tensors": {Tensor: "x", TensorPath: "y", Rank: 2},
		"bad rank":     {Tensor: testTensorText(t, 3, 4, 5, 1), Rank: 0},
		"bad algo":     {Tensor: testTensorText(t, 3, 4, 5, 1), Rank: 2, Algo: "cpd"},
		"rank>dim":     {Tensor: testTensorText(t, 3, 4, 5, 1), Rank: 9},
		"bad text":     {Tensor: "not a tensor", Rank: 2},
		"negative":     {Tensor: testTensorText(t, 3, 4, 5, 1), Rank: 2, MaxIters: -1},
	} {
		if _, err := m.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Submit err = %v, want ErrInvalidSpec", name, err)
		}
	}
}

// gateRunners arms a jobs.run hook that records each popped job ID and
// blocks until the returned release func runs (idempotent; also run at
// cleanup so Close never hangs on a parked runner).
func gateRunners(t *testing.T) (started func() []string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var ids []string
	disarm := faultinject.Arm(faultinject.SiteJobRun, func(p any) error {
		mu.Lock()
		ids = append(ids, p.(string))
		mu.Unlock()
		<-gate
		return nil
	})
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { release(); disarm() })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ids...)
	}, release
}

func TestAdmissionQueueBounds(t *testing.T) {
	checkGoroutines(t)
	// Manager first, gate second: cleanups run LIFO, so the gate opens
	// before Close drains the fleet (same ordering in every gated test).
	m := newManager(t, Config{Runners: 1, MaxQueuedPerTenant: 2, MaxQueued: 4})
	started, release := gateRunners(t)

	running, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner holds the job (it is then out of the queue).
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	var queued []string
	for i := 0; i < 2; i++ {
		id, err := m.Submit(baseSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}
	// Tenant bound: third queued job for the default tenant is rejected.
	if _, err := m.Submit(baseSpec(t)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-tenant-bound Submit err = %v, want ErrSaturated", err)
	}
	// Global bound: two more tenants fill the global queue of 4...
	for _, tenant := range []string{"b", "c"} {
		spec := baseSpec(t)
		spec.Tenant = tenant
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	spec := baseSpec(t)
	spec.Tenant = "d"
	if _, err := m.Submit(spec); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-global-bound Submit err = %v, want ErrSaturated", err)
	}
	if got := m.Counters().Value("jobs.rejected.saturated"); got != 2 {
		t.Errorf("jobs.rejected.saturated = %d, want 2", got)
	}
	release()
	waitState(t, m, running, StateSucceeded)
	for _, id := range queued {
		waitState(t, m, id, StateSucceeded)
	}
}

func TestAdmissionMemoryBudget(t *testing.T) {
	m := newManager(t, Config{MemoryBudget: 1})
	_, err := m.Submit(baseSpec(t))
	if !errors.Is(err, ErrSaturated) || !errors.Is(err, memguard.ErrOutOfMemory) {
		t.Fatalf("Submit err = %v, want ErrSaturated wrapping ErrOutOfMemory", err)
	}
}

func TestAdmissionFaultInjected(t *testing.T) {
	m := newManager(t, Config{})
	disarm := faultinject.Arm(faultinject.SiteJobAdmit, func(any) error {
		return errors.New("injected admission fault")
	})
	defer disarm()
	if _, err := m.Submit(baseSpec(t)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Submit err = %v, want ErrSaturated", err)
	}
	if got := m.Counters().Value("jobs.admit_faults"); got != 1 {
		t.Errorf("jobs.admit_faults = %d, want 1", got)
	}
}

func TestQueueTTLExpiry(t *testing.T) {
	checkGoroutines(t)
	m := newManager(t, Config{Runners: 1, QueueTTL: 100 * time.Millisecond})
	started, release := gateRunners(t)
	first, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	second, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // let the queued job outlive its TTL
	release()
	waitState(t, m, first, StateSucceeded)
	st := waitState(t, m, second, StateExpired)
	if !strings.Contains(st.Error, "expired") {
		t.Errorf("expired status error = %q", st.Error)
	}
	if got := m.Counters().Value("jobs.expired"); got != 1 {
		t.Errorf("jobs.expired = %d, want 1", got)
	}
}

// TestRetryOnWorkerPanic injects one kernel-worker crash: the driver
// surfaces ErrWorkerPanic, the server classifies it retryable, and the
// second attempt — resuming from the first attempt's checkpoint if one
// was written — succeeds.
func TestRetryOnWorkerPanic(t *testing.T) {
	checkGoroutines(t)
	disarm := faultinject.Arm(faultinject.SiteKernelWorker,
		faultinject.OnHit(3, func(any) error { panic("injected worker crash") }))
	defer disarm()
	m := newManager(t, Config{Runners: 1})
	id, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateSucceeded)
	if st.Retries != 1 || st.Attempt != 2 {
		t.Errorf("Retries=%d Attempt=%d, want 1 and 2", st.Retries, st.Attempt)
	}
	if got := m.Counters().Value("jobs.retries"); got != 1 {
		t.Errorf("jobs.retries = %d, want 1", got)
	}
}

// TestRunFaultRetriesExhausted: a persistent jobs.run fault burns every
// attempt; the job lands in Failed with the exhaustion recorded — never
// hung, never lost.
func TestRunFaultRetriesExhausted(t *testing.T) {
	checkGoroutines(t)
	hook, hits := faultinject.Counter()
	disarm := faultinject.Arm(faultinject.SiteJobRun, func(p any) error {
		hook(p)
		return errors.New("injected run fault")
	})
	defer disarm()
	m := newManager(t, Config{Runners: 1})
	id, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateFailed)
	if !strings.Contains(st.Error, "retries exhausted after 3 attempts") {
		t.Errorf("status error = %q", st.Error)
	}
	if st.Retries != 3 || hits() != 3 {
		t.Errorf("Retries=%d hook hits=%d, want 3 and 3", st.Retries, hits())
	}
	if got := m.Counters().Value("jobs.retries"); got != 2 {
		t.Errorf("jobs.retries = %d, want 2 (third failure is terminal)", got)
	}
	if got := m.Counters().Value("jobs.failed"); got != 1 {
		t.Errorf("jobs.failed = %d, want 1", got)
	}
}

// TestRunFaultOnceThenSucceed: one injected fault, one backoff retry,
// then success — the acceptance shape for the fault matrix.
func TestRunFaultOnceThenSucceed(t *testing.T) {
	disarm := faultinject.Arm(faultinject.SiteJobRun,
		faultinject.OnHit(1, func(any) error { return errors.New("transient fault") }))
	defer disarm()
	m := newManager(t, Config{Runners: 1})
	id, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateSucceeded)
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	checkGoroutines(t)
	m := newManager(t, Config{Runners: 1})
	started, release := gateRunners(t)
	first, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	second, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(second); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, second, StateCanceled)
	if st.Attempt != 0 {
		t.Errorf("canceled-in-queue job has Attempt=%d, want 0", st.Attempt)
	}
	if err := m.Cancel(second); err != nil { // idempotent on terminal jobs
		t.Errorf("second Cancel: %v", err)
	}
	release()
	waitState(t, m, first, StateSucceeded)
}

func TestCancelRunningJob(t *testing.T) {
	checkGoroutines(t)
	iterHit := make(chan struct{})
	var once sync.Once
	disarm := faultinject.Arm(faultinject.SiteIteration, func(p any) error {
		if p.(int) >= 2 {
			once.Do(func() { close(iterHit) })
		}
		time.Sleep(time.Millisecond) // keep the run alive past the Cancel
		return nil
	})
	defer disarm()
	m := newManager(t, Config{Runners: 1})
	spec := baseSpec(t)
	spec.MaxIters = 200
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-iterHit
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateCanceled)
	if !strings.Contains(st.Error, "canceled by client") {
		t.Errorf("status error = %q", st.Error)
	}
	// The interrupted run snapshots on the way out: the job is resumable
	// evidence-wise even though cancellation is terminal.
	if !st.Checkpointed {
		t.Error("canceled running job left no checkpoint")
	}
	if _, err := m.ResultPath(id); !errors.Is(err, ErrNotTerminal) {
		t.Errorf("ResultPath of canceled job err = %v, want ErrNotTerminal", err)
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	checkGoroutines(t)
	disarm := faultinject.Arm(faultinject.SiteIteration, func(any) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	defer disarm()
	m := newManager(t, Config{Runners: 1})
	spec := baseSpec(t)
	spec.MaxIters = 10000
	spec.TimeoutSec = 0.05
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateCanceled)
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Errorf("status error = %q", st.Error)
	}
}

// TestDrainRequeuesAndResumesBitIdentical is the graceful-drain half of
// the crash-resume contract: drain snapshots the running job and parks it
// as Queued; a new Manager over the same spool resumes it; the resumed
// factor is byte-identical to an uninterrupted control run.
func TestDrainRequeuesAndResumesBitIdentical(t *testing.T) {
	checkGoroutines(t)
	spoolDir := t.TempDir()
	spec := Spec{
		Tensor:          testTensorText(t, 3, 12, 60, 4),
		Rank:            4,
		MaxIters:        40,
		Seed:            7,
		Workers:         2,
		CheckpointEvery: 1,
	}

	midway := make(chan struct{})
	var once sync.Once
	disarm := faultinject.Arm(faultinject.SiteIteration, func(p any) error {
		if p.(int) >= 4 {
			once.Do(func() { close(midway) })
		}
		time.Sleep(2 * time.Millisecond) // hold the run open for the drain
		return nil
	})

	a, err := Open(Config{SpoolDir: spoolDir, Runners: 1, MemoryBudget: -1,
		Retry: fastRetry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-midway
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()
	disarm()
	if _, err := a.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit err = %v, want ErrDraining", err)
	}
	st, err := a.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || !st.Checkpointed {
		t.Fatalf("after drain: state=%s checkpointed=%v, want queued with checkpoint", st.State, st.Checkpointed)
	}
	if got := a.Counters().Value("jobs.requeued"); got != 1 {
		t.Errorf("jobs.requeued = %d, want 1", got)
	}

	// The "restarted server": a fresh Manager over the same spool.
	b := newManager(t, Config{SpoolDir: spoolDir, Runners: 1})
	if got := b.Counters().Value("jobs.resumed"); got != 1 {
		t.Errorf("jobs.resumed = %d, want 1", got)
	}
	waitState(t, b, id, StateSucceeded)
	resumed, err := os.ReadFile(b.spool.ResultPath(id))
	if err != nil {
		t.Fatal(err)
	}

	// Control: the identical spec, uninterrupted, in a fresh spool.
	c := newManager(t, Config{Runners: 1})
	cid, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, cid, StateSucceeded)
	control, err := os.ReadFile(c.spool.ResultPath(cid))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(control) {
		t.Error("resumed factor differs from uninterrupted control run (bit-identity broken)")
	}
}

// TestShardedJobResumesBitIdentical pins Spec.Shards as ignored: a
// Shards=4 job interrupted mid-run and resumed by a "restarted server"
// must produce the same result file as an uninterrupted run of the same
// spec without Shards.
func TestShardedJobResumesBitIdentical(t *testing.T) {
	checkGoroutines(t)
	spoolDir := t.TempDir()
	spec := Spec{
		Tensor:          testTensorText(t, 3, 12, 60, 5),
		Rank:            4,
		MaxIters:        30,
		Seed:            9,
		Workers:         2,
		Shards:          4,
		CheckpointEvery: 1,
	}

	midway := make(chan struct{})
	var once sync.Once
	disarm := faultinject.Arm(faultinject.SiteIteration, func(p any) error {
		if p.(int) >= 4 {
			once.Do(func() { close(midway) })
		}
		time.Sleep(2 * time.Millisecond) // hold the run open for the drain
		return nil
	})

	a, err := Open(Config{SpoolDir: spoolDir, Runners: 1, MemoryBudget: -1,
		Retry: fastRetry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-midway
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()
	disarm()

	b := newManager(t, Config{SpoolDir: spoolDir, Runners: 1})
	waitState(t, b, id, StateSucceeded)
	if _, err := b.spool.LoadManifest(id); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(b.spool.ResultPath(id))
	if err != nil {
		t.Fatal(err)
	}

	// Control: same spec, uninterrupted, and without Shards.
	control := spec
	control.Shards = 0
	c := newManager(t, Config{Runners: 1})
	cid, err := c.Submit(control)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, cid, StateSucceeded)
	plain, err := os.ReadFile(c.spool.ResultPath(cid))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(plain) {
		t.Error("sharded resumed factor differs from unsharded control run (bit-identity broken)")
	}
}

// TestManifestWithShardsResumes: a spool manifest that carries "shards",
// at the top level and in its spec, as servers that ran shard engines
// wrote it, still rescans. Its job resumes from its checkpoint and ends on
// the bits of an uninterrupted run.
func TestManifestWithShardsResumes(t *testing.T) {
	checkGoroutines(t)
	spoolDir := t.TempDir()
	spool, err := OpenSpool(spoolDir)
	if err != nil {
		t.Fatal(err)
	}
	text := testTensorText(t, 3, 12, 60, 6)
	x, err := spsym.ReadFrom(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Rank: 4, MaxIters: 8, Seed: 9, Workers: 2, Shards: 4, CheckpointEvery: 1}
	man := &Manifest{ID: NewJobID(), Spec: spec, State: StateRunning, Workers: 2, Attempt: 1,
		EnqueuedAt: time.Now(), StartedAt: time.Now()}
	if err := spool.CreateJob(man, x); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(spool.JobDir(man.ID), manifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["shards"] = 4
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	// The three sweeps the crashed server finished.
	if _, err := tucker.HOQRI(x, tucker.Options{Rank: 4, MaxIters: 3, Seed: 9, Workers: 2,
		CheckpointPath: spool.CheckpointPath(man.ID), CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}

	var first atomic.Int64
	first.Store(-1)
	disarm := faultinject.Arm(faultinject.SiteIteration, func(p any) error {
		first.CompareAndSwap(-1, int64(p.(int)))
		return nil
	})
	defer disarm()
	m := newManager(t, Config{SpoolDir: spoolDir, Runners: 1})
	waitState(t, m, man.ID, StateSucceeded)
	disarm()
	if got := first.Load(); got != 3 {
		t.Errorf("the restarted job began at sweep %d, want 3 (resumed from its checkpoint)", got)
	}
	resumed, err := os.ReadFile(m.spool.ResultPath(man.ID))
	if err != nil {
		t.Fatal(err)
	}

	control := spec
	control.Tensor, control.Shards = text, 0
	c := newManager(t, Config{Runners: 1})
	cid, err := c.Submit(control)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, cid, StateSucceeded)
	plain, err := os.ReadFile(c.spool.ResultPath(cid))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(plain) {
		t.Error("resumed factor differs from the uninterrupted run")
	}
}

// TestRescanRequeuesRunningManifest simulates the SIGKILL case the smoke
// script exercises end to end: a manifest persisted as Running (the
// process died mid-run) is requeued and completes on the next process.
func TestRescanRequeuesRunningManifest(t *testing.T) {
	checkGoroutines(t)
	spoolDir := t.TempDir()
	spool, err := OpenSpool(spoolDir)
	if err != nil {
		t.Fatal(err)
	}
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 8, NNZ: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	man := &Manifest{
		ID:         NewJobID(),
		Spec:       Spec{Rank: 3, MaxIters: 8, Seed: 2, TensorPath: "spooled"},
		State:      StateRunning,
		Workers:    2,
		Attempt:    1,
		EnqueuedAt: time.Now(),
		StartedAt:  time.Now(),
	}
	if err := spool.CreateJob(man, x); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{SpoolDir: spoolDir, Runners: 1})
	st := waitState(t, m, man.ID, StateSucceeded)
	if st.Attempt < 2 {
		t.Errorf("resumed job Attempt = %d, want >= 2 (the dead process's attempt counts)", st.Attempt)
	}
}

func TestRescanSkipsCorruptEntries(t *testing.T) {
	spoolDir := t.TempDir()
	// A job directory with a torn manifest, plus stray garbage at the root.
	if err := os.MkdirAll(filepath.Join(spoolDir, "jdeadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spoolDir, "jdeadbeef", "job.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spoolDir, "stray.txt"), []byte("not a job"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{SpoolDir: spoolDir})
	if got := m.Counters().Value("jobs.spool_skipped"); got != 2 {
		t.Errorf("jobs.spool_skipped = %d, want 2", got)
	}
	if n := len(m.List()); n != 0 {
		t.Errorf("List() returned %d jobs from a spool of garbage", n)
	}
}

// TestCorruptCheckpointDiscarded: a torn snapshot in the spool must not
// wedge the job — the runner discards it and starts the attempt fresh.
func TestCorruptCheckpointDiscarded(t *testing.T) {
	checkGoroutines(t)
	spoolDir := t.TempDir()
	spool, err := OpenSpool(spoolDir)
	if err != nil {
		t.Fatal(err)
	}
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 8, NNZ: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	man := &Manifest{
		ID:         NewJobID(),
		Spec:       Spec{Rank: 3, MaxIters: 8, Seed: 2, TensorPath: "spooled"},
		State:      StateQueued,
		Workers:    2,
		EnqueuedAt: time.Now(),
	}
	if err := spool.CreateJob(man, x); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool.CheckpointPath(man.ID), []byte("SYMCKPTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{SpoolDir: spoolDir, Runners: 1})
	waitState(t, m, man.ID, StateSucceeded)
	if got := m.Counters().Value("jobs.ckpt_discarded"); got != 1 {
		t.Errorf("jobs.ckpt_discarded = %d, want 1", got)
	}
}

// TestRoundRobinFairness: with one runner and two tenants queued A,A,A
// then B,B,B, execution alternates tenants instead of draining A first.
func TestRoundRobinFairness(t *testing.T) {
	checkGoroutines(t)
	m := newManager(t, Config{Runners: 1, MaxQueuedPerTenant: 3, MaxQueued: 8})
	started, release := gateRunners(t)
	// A blocker job from a third tenant occupies the only runner first, so
	// all six jobs below are queued before any of them can be popped. Without
	// it the runner may take a's first job before a's second is submitted;
	// a then re-enters the rotation ahead of b and the tail ends in "bb".
	blocker, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	tenantOf := map[string]string{blocker: "-"}
	ids := []string{blocker}
	for _, tenant := range []string{"a", "a", "a", "b", "b", "b"} {
		spec := baseSpec(t)
		spec.Tenant = tenant
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[id] = tenant
		ids = append(ids, id)
	}
	release()
	for _, id := range ids {
		waitState(t, m, id, StateSucceeded)
	}
	var order []string
	for _, id := range started() {
		order = append(order, tenantOf[id])
	}
	// Every job was queued before the first pop, so the rotation must
	// strictly alternate from the first job on; a run of the same tenant
	// means starvation.
	got := strings.Join(order, "")
	if len(order) != 7 {
		t.Fatalf("recorded %d runs, want 7 (%q)", len(order), got)
	}
	if got != "-ababab" {
		t.Fatalf("run order %q, want %q", got, "-ababab")
	}
}

func TestSubscribeStreamsTraceAndTerminalState(t *testing.T) {
	checkGoroutines(t)
	m := newManager(t, Config{Runners: 1})
	started, release := gateRunners(t)
	id, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	ch, detach, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	release()
	traces, states := 0, []State(nil)
	for ev := range ch {
		switch ev.Type {
		case "trace":
			traces++
			if ev.Trace == nil || ev.Trace.WallNs <= 0 {
				t.Errorf("malformed trace event %+v", ev)
			}
		case "state":
			states = append(states, ev.State)
		}
	}
	if traces == 0 {
		t.Error("no trace events streamed")
	}
	if len(states) == 0 || states[len(states)-1] != StateSucceeded {
		t.Errorf("state events %v do not end in succeeded", states)
	}
	// A late subscriber to a terminal job gets the final state and a
	// closed channel.
	late, detachLate, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer detachLate()
	ev, ok := <-late
	if !ok || ev.State != StateSucceeded {
		t.Errorf("late subscription got (%+v, %v), want succeeded event", ev, ok)
	}
	if _, ok := <-late; ok {
		t.Error("late subscription channel not closed after final event")
	}
}

func TestUnknownJobLookups(t *testing.T) {
	m := newManager(t, Config{})
	if _, err := m.Status("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status err = %v", err)
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel err = %v", err)
	}
	if _, _, err := m.Subscribe("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Subscribe err = %v", err)
	}
	if _, err := m.ResultPath("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ResultPath err = %v", err)
	}
	if err := m.Remove("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Remove err = %v", err)
	}
}

func TestRemoveTerminalJob(t *testing.T) {
	m := newManager(t, Config{Runners: 1})
	id, err := m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, id, StateSucceeded)
	if err := m.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Status(id); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status after Remove err = %v", err)
	}
	if _, err := os.Stat(m.spool.JobDir(id)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("job dir survives Remove: %v", err)
	}
}

func TestClassify(t *testing.T) {
	p := &RetryPolicy{}
	for _, tc := range []struct {
		name string
		err  error
		want Class
	}{
		{"plain", errors.New("boom"), ClassTerminal},
		{"worker panic", fmt.Errorf("wrap: %w", kernels.ErrWorkerPanic), ClassRetryable},
		{"numeric", fmt.Errorf("wrap: %w", tucker.ErrNumericBreakdown), ClassRetryable},
		{"oom", fmt.Errorf("wrap: %w", memguard.ErrOutOfMemory), ClassRetryable},
		{"ckpt corrupt", fmt.Errorf("wrap: %w", checkpoint.ErrCheckpointCorrupt), ClassRetryable},
		{"ckpt mismatch", fmt.Errorf("wrap: %w", checkpoint.ErrMismatch), ClassRetryable},
		{"injected", fmt.Errorf("%w: x", errInjectedRunFault), ClassRetryable},
		{"client cancel", &tucker.CanceledError{Cause: errCanceledByClient}, ClassCanceled},
		{"deadline", &tucker.CanceledError{Cause: context.DeadlineExceeded}, ClassCanceled},
		{"drain", &tucker.CanceledError{Cause: ErrDraining}, ClassDrained},
		{"root died", &tucker.CanceledError{Cause: context.Canceled}, ClassDrained},
		{"attempt panic", fmt.Errorf("%w: boom", errAttemptPanic), ClassRetryable},
	} {
		if got := p.Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRetryDelayShape(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond,
		MaxDelay: time.Second, Seed: 42}
	for retry := 1; retry <= 6; retry++ {
		base := 100 * time.Millisecond << (retry - 1)
		if base > time.Second {
			base = time.Second
		}
		for i := 0; i < 20; i++ {
			d := p.Delay(retry)
			lo, hi := base/2, time.Second
			if x := base + base/2; x < hi {
				hi = x
			}
			if d < lo || d > hi {
				t.Fatalf("Delay(%d) = %s outside [%s, %s]", retry, d, lo, hi)
			}
		}
	}
}

func TestNewJobIDUniqueSortable(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		id := NewJobID()
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "j") || strings.ContainsAny(id, "/\\ ") {
			t.Fatalf("malformed ID %q", id)
		}
	}
}
