package jobs

// Manager is the job server's core: admission control in front of
// bounded per-tenant queues, a runner fleet (runner.go), and the drain /
// crash-recovery choreography. Locking discipline: Manager.mu orders
// before job.mu (a path holding job.mu must never take Manager.mu);
// spool writes happen under job.mu only, so per-job persistence never
// serializes unrelated tenants — except admission itself, which holds
// Manager.mu across the job-directory creation on purpose: admissions
// are ordered and crash-consistent, and their cost is dominated by the
// tensor copy a client already paid to upload.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// Config sizes the Manager. The zero value of every field is usable:
// Open applies the defaults documented per field.
type Config struct {
	// SpoolDir is the server-owned job directory (required).
	SpoolDir string
	// Runners is the number of concurrently running jobs (default 2).
	Runners int
	// JobWorkers is the per-job kernel parallelism a job gets when its
	// spec leaves Workers at 0 (default 2). Each runner owns one
	// exec.Pool of this size, reused across every job it runs.
	JobWorkers int
	// MemoryBudget bounds the server-wide simulated memory shared by
	// admission reservations and kernel reservations, with the
	// symprop.Options semantics: 0 reads SYMPROP_MEM_BUDGET (default
	// 2 GiB), negative disables the budget.
	MemoryBudget int64
	// MaxQueuedPerTenant bounds one tenant's queue (default 8).
	MaxQueuedPerTenant int
	// MaxQueued bounds the whole queue across tenants (default 64).
	MaxQueued int
	// QueueTTL expires jobs that wait in the queue longer than this
	// without ever starting (default 10m; negative disables expiry).
	QueueTTL time.Duration
	// RetryAfter is the client backoff hint attached to saturation and
	// drain rejections (default 5s).
	RetryAfter time.Duration
	// Retry paces the per-job retry loop.
	Retry RetryPolicy
	// Metrics, when non-nil, is the per-plan collector every job's
	// kernel plans record into; nil uses a private one.
	Metrics *obs.Metrics
	// Counters, when non-nil, receives the control-plane counters; nil
	// uses a private set. Exposed via Counters().
	Counters *obs.Counters
	// Logf, when non-nil, receives one line per server-side incident
	// (spool skips, retries, drain); nil discards.
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	if c.SpoolDir == "" {
		return fmt.Errorf("jobs: Config.SpoolDir is required")
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.QueueTTL == 0 {
		c.QueueTTL = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.New()
	}
	if c.Counters == nil {
		c.Counters = obs.NewCounters()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.Retry.normalize()
	return nil
}

// job is the in-memory twin of a spooled manifest.
type job struct {
	mu  sync.Mutex
	man Manifest
	// x is the job's tensor, loaded at admission (or rescan) and dropped
	// when the job reaches a terminal state.
	x *spsym.Tensor
	// reserved is the admission guard reservation held while the job is
	// queued; released when the job starts (kernel reservations take
	// over) or reaches a terminal state without running.
	reserved int64
	// cancel is non-nil while a runner executes the job.
	cancel context.CancelCauseFunc
	// subs are the live event subscribers (SSE clients).
	subs    map[int]chan Event
	nextSub int
}

// Manager owns the spool, the queues, and the runner fleet.
type Manager struct {
	cfg      Config
	spool    *Spool
	guard    *memguard.Guard
	counters *obs.Counters

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queues   map[string][]*job
	tenants  []string // round-robin order over tenants with queued work
	rrNext   int
	queued   int
	running  int
	draining bool
	closed   bool

	rootCtx    context.Context
	rootCancel context.CancelCauseFunc
	wg         sync.WaitGroup
}

// Open builds a Manager over cfg.SpoolDir, rescans the spool — requeuing
// every job that was queued or running when the previous process died —
// and starts the runner fleet.
func Open(cfg Config) (*Manager, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	spool, err := OpenSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:        cfg,
		spool:      spool,
		guard:      memguard.ForBudget(cfg.MemoryBudget),
		counters:   cfg.Counters,
		jobs:       make(map[string]*job),
		queues:     make(map[string][]*job),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	m.cond = sync.NewCond(&m.mu)
	if err := m.rescan(); err != nil {
		cancel(nil)
		return nil, err
	}
	m.wg.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go m.runner(i)
	}
	return m, nil
}

// rescan is Open's crash-recovery pass: load every manifest, keep
// terminal jobs for status queries, requeue live ones for resume.
func (m *Manager) rescan() error {
	mans, issues, err := m.spool.Rescan()
	if err != nil {
		return err
	}
	for _, is := range issues {
		m.counters.Add("jobs.spool_skipped", 1)
		m.cfg.Logf("jobs: spool rescan skipped %s: %v", is.Path, is.Err)
	}
	for _, man := range mans {
		j := &job{man: *man, subs: make(map[int]chan Event)}
		if man.State.Terminal() {
			m.jobs[man.ID] = j
			continue
		}
		// Queued or Running at crash time: both resume as Queued. The
		// checkpoint (if any) carries the completed sweeps.
		x, err := m.spool.LoadTensor(man.ID)
		if err != nil {
			j.mu.Lock()
			m.finishLocked(j, StateFailed, fmt.Sprintf("spool tensor unreadable after restart: %v", err))
			j.mu.Unlock()
			m.jobs[man.ID] = j
			continue
		}
		j.x = x
		if j.man.State != StateQueued {
			j.man.State = StateQueued
			if err := m.spool.SaveManifest(&j.man); err != nil {
				return fmt.Errorf("jobs: requeue %s: %w", man.ID, err)
			}
		}
		// Re-establish the admission reservation best-effort: a smaller
		// budget on restart must not strand spooled work, so a rejection
		// leaves the job queued with no reservation (the run itself still
		// enforces the budget).
		est := estimateBytes(x, j.man.Spec.Rank, j.man.Workers)
		if err := m.guard.Reserve(est, "job "+man.ID+" readmission"); err == nil {
			j.reserved = est
		} else {
			m.cfg.Logf("jobs: %s readmitted without reservation: %v", man.ID, err)
		}
		m.jobs[man.ID] = j
		m.enqueueLocked(j)
		m.counters.Add("jobs.resumed", 1)
	}
	return nil
}

// estimateBytes models a job's peak kernel footprint for admission: the
// S³TTMc workspaces plus the factor and compact core that stay resident
// across sweeps.
func estimateBytes(x *spsym.Tensor, rank, workers int) int64 {
	est := kernels.EstimateSymPropBytes(x, rank, workers)
	factor := memguard.Float64Bytes(int64(x.Dim) * int64(rank))
	if est+factor < est {
		return est
	}
	return est + factor
}

// Submit admits one job: fault site, validation, tensor load, guard
// reservation, queue bounds, durable spool write, enqueue — in that
// order, so every rejection happens before anything is persisted.
func (m *Manager) Submit(spec Spec) (string, error) {
	if m.isDraining() {
		m.counters.Add("jobs.rejected.draining", 1)
		return "", ErrDraining
	}
	if err := faultinject.Fire(faultinject.SiteJobAdmit, &spec); err != nil {
		m.counters.Add("jobs.admit_faults", 1)
		return "", fmt.Errorf("%w: admission fault injected: %v", ErrSaturated, err)
	}
	if err := spec.validate(); err != nil {
		return "", err
	}
	x, err := loadSpecTensor(&spec)
	if err != nil {
		return "", err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = m.cfg.JobWorkers
	}
	est := estimateBytes(x, spec.Rank, workers)
	if err := m.guard.Reserve(est, "job admission"); err != nil {
		m.counters.Add("jobs.rejected.saturated", 1)
		return "", fmt.Errorf("%w: %w", ErrSaturated, err)
	}

	id := NewJobID()
	j := &job{
		man: Manifest{
			ID:         id,
			Spec:       spec,
			State:      StateQueued,
			Workers:    workers,
			EnqueuedAt: time.Now(),
		},
		x:        x,
		reserved: est,
		subs:     make(map[int]chan Event),
	}
	// The spooled tensor is the job's source of truth from here on; the
	// inline copy would only bloat every manifest rewrite.
	j.man.Spec.Tensor = ""

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.closed {
		m.guard.Release(est)
		m.counters.Add("jobs.rejected.draining", 1)
		return "", ErrDraining
	}
	tenant := spec.tenant()
	if len(m.queues[tenant]) >= m.cfg.MaxQueuedPerTenant {
		m.guard.Release(est)
		m.counters.Add("jobs.rejected.saturated", 1)
		return "", fmt.Errorf("%w: tenant %q has %d jobs queued (limit %d)",
			ErrSaturated, tenant, len(m.queues[tenant]), m.cfg.MaxQueuedPerTenant)
	}
	if m.queued >= m.cfg.MaxQueued {
		m.guard.Release(est)
		m.counters.Add("jobs.rejected.saturated", 1)
		return "", fmt.Errorf("%w: %d jobs queued (limit %d)", ErrSaturated, m.queued, m.cfg.MaxQueued)
	}
	if err := m.spool.CreateJob(&j.man, x); err != nil {
		m.guard.Release(est)
		return "", err
	}
	m.jobs[id] = j
	m.enqueueLocked(j)
	m.counters.Add("jobs.submitted", 1)
	m.cond.Signal()
	return id, nil
}

// loadSpecTensor materializes the spec's tensor (inline text or
// server-local file) and validates it.
func loadSpecTensor(spec *Spec) (*spsym.Tensor, error) {
	var x *spsym.Tensor
	var err error
	if spec.Tensor != "" {
		if x, err = spsym.ReadFrom(strings.NewReader(spec.Tensor)); err != nil {
			return nil, fmt.Errorf("%w: tensor: %v", ErrInvalidSpec, err)
		}
	} else if x, err = loadTensorPath(spec.TensorPath); err != nil {
		return nil, err
	}
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("%w: tensor: %v", ErrInvalidSpec, err)
	}
	if spec.Rank > x.Dim {
		return nil, fmt.Errorf("%w: rank %d exceeds dimension %d", ErrInvalidSpec, spec.Rank, x.Dim)
	}
	return x, nil
}

// loadTensorPath reads a tensor_path, a server-local file the client
// names. The open does not block and the file must be regular, so a FIFO
// or a device cannot hold the handler. A file that does not parse is
// refused without quoting it: the client may not otherwise read it.
func loadTensorPath(path string) (*spsym.Tensor, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: tensor_path: %v", ErrInvalidSpec, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: tensor_path: %v", ErrInvalidSpec, err)
	}
	if !info.Mode().IsRegular() {
		return nil, fmt.Errorf("%w: tensor_path %q is not a regular file", ErrInvalidSpec, path)
	}
	x, err := spsym.ReadAuto(f)
	if err != nil {
		return nil, fmt.Errorf("%w: tensor_path %q is not a symmetric tensor file", ErrInvalidSpec, path)
	}
	return x, nil
}

// enqueueLocked appends j to its tenant queue; caller holds m.mu. The
// rotation invariant: a tenant appears in m.tenants exactly once iff it
// has an entry (possibly empty) in m.queues.
func (m *Manager) enqueueLocked(j *job) {
	tenant := j.man.Spec.tenant()
	if _, listed := m.queues[tenant]; !listed {
		m.tenants = append(m.tenants, tenant)
	}
	m.queues[tenant] = append(m.queues[tenant], j)
	m.queued++
	m.counters.Set("jobs.queued", int64(m.queued))
}

// dropTenantLocked removes the rotation entry at index i (its queue is
// empty); caller holds m.mu. rrNext ends up pointing at the tenant that
// followed it, preserving the rotation order.
func (m *Manager) dropTenantLocked(i int) {
	delete(m.queues, m.tenants[i])
	m.tenants = append(m.tenants[:i], m.tenants[i+1:]...)
	if m.rrNext > i {
		m.rrNext--
	}
}

// dequeueLocked pops the next job round-robin across tenants; caller
// holds m.mu. Returns nil when every queue is empty.
func (m *Manager) dequeueLocked() *job {
	for len(m.tenants) > 0 {
		if m.rrNext >= len(m.tenants) {
			m.rrNext = 0
		}
		tenant := m.tenants[m.rrNext]
		q := m.queues[tenant]
		if len(q) == 0 {
			// Emptied by removeQueuedLocked since its last pop: drop the
			// rotation entry and retry at the same index.
			m.dropTenantLocked(m.rrNext)
			continue
		}
		j := q[0]
		if len(q) == 1 {
			m.dropTenantLocked(m.rrNext)
		} else {
			m.queues[tenant] = q[1:]
			m.rrNext++ // next pop starts at the following tenant: fairness
		}
		m.queued--
		m.counters.Set("jobs.queued", int64(m.queued))
		return j
	}
	return nil
}

// removeQueuedLocked unlinks j from its tenant queue if still present;
// reports whether it was found. Caller holds m.mu.
func (m *Manager) removeQueuedLocked(j *job) bool {
	tenant := j.man.Spec.tenant()
	q := m.queues[tenant]
	for i, cand := range q {
		if cand == j {
			m.queues[tenant] = append(q[:i:i], q[i+1:]...)
			m.queued--
			m.counters.Set("jobs.queued", int64(m.queued))
			return true
		}
	}
	return false
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining || m.closed
}

// Draining reports whether the server has stopped admitting work.
func (m *Manager) Draining() bool { return m.isDraining() }

// RetryAfter is the client backoff hint for saturation/drain rejections.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// Counters exposes the control-plane counter set.
func (m *Manager) Counters() *obs.Counters { return m.counters }

// Metrics exposes the per-plan kernel collector shared by every job.
func (m *Manager) Metrics() *obs.Metrics { return m.cfg.Metrics }

// lookup returns the job or ErrUnknownJob.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Status returns a job's externally visible state.
func (m *Manager) Status(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	_, statErr := os.Stat(m.spool.CheckpointPath(id))
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:           j.man.ID,
		Tenant:       j.man.Spec.tenant(),
		State:        j.man.State,
		Attempt:      j.man.Attempt,
		Retries:      j.man.Retries,
		Error:        j.man.Error,
		Checkpointed: statErr == nil,
		Iters:        j.man.Iters,
		RelError:     j.man.RelError,
		Converged:    j.man.Converged,
		EnqueuedAt:   unixMS(j.man.EnqueuedAt),
		StartedAt:    unixMS(j.man.StartedAt),
		FinishedAt:   unixMS(j.man.FinishedAt),
	}, nil
}

// List returns every known job's status, sorted by ID (admission order).
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, err := m.Status(id); err == nil {
			out = append(out, st)
		}
	}
	sortStatuses(out)
	return out
}

func sortStatuses(sts []Status) {
	for i := 1; i < len(sts); i++ {
		for k := i; k > 0 && sts[k].ID < sts[k-1].ID; k-- {
			sts[k], sts[k-1] = sts[k-1], sts[k]
		}
	}
}

// ResultPath returns the path of a succeeded job's factor matrix.
func (m *Manager) ResultPath(id string) (string, error) {
	j, err := m.lookup(id)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	state := j.man.State
	j.mu.Unlock()
	if state != StateSucceeded {
		return "", fmt.Errorf("%w: job %s is %s", ErrNotTerminal, id, state)
	}
	return m.spool.ResultPath(id), nil
}

// Cancel stops a job: a queued job is unlinked and marked Canceled, a
// running one has its context canceled (the runner persists the terminal
// state). Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	j.mu.Lock()
	if j.man.State.Terminal() {
		j.mu.Unlock()
		m.mu.Unlock()
		return nil
	}
	if j.cancel != nil {
		cancel := j.cancel
		j.mu.Unlock()
		m.mu.Unlock()
		cancel(errCanceledByClient)
		return nil
	}
	// Queued: unlink and finish it here.
	m.removeQueuedLocked(j)
	m.mu.Unlock()
	m.finishLocked(j, StateCanceled, "canceled by client before running")
	j.mu.Unlock()
	return nil
}

// Remove deletes a terminal job from the spool and the in-memory table.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	j.mu.Lock()
	terminal := j.man.State.Terminal()
	j.mu.Unlock()
	if !terminal {
		m.mu.Unlock()
		return fmt.Errorf("%w: job %s", ErrNotTerminal, id)
	}
	delete(m.jobs, id)
	m.mu.Unlock()
	return m.spool.Remove(id)
}

// Subscribe attaches an event channel to a job. The channel receives
// lifecycle and trace events and is closed when the job reaches a
// terminal state; slow consumers lose events rather than stalling the
// run. A subscription to an already-terminal job delivers the final
// state and closes immediately. The returned func detaches.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan Event, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.man.State.Terminal() {
		ch <- Event{Type: "state", JobID: j.man.ID, State: j.man.State,
			Error: j.man.Error, Attempt: j.man.Attempt}
		close(ch)
		return ch, func() {}, nil
	}
	key := j.nextSub
	j.nextSub++
	j.subs[key] = ch
	detach := func() {
		j.mu.Lock()
		if _, live := j.subs[key]; live {
			delete(j.subs, key)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, detach, nil
}

// emitLocked fans ev out to the job's subscribers without blocking;
// caller holds j.mu.
func (j *job) emitLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop, never stall the runner
		}
	}
}

// closeSubsLocked closes every subscriber channel; caller holds j.mu.
func (j *job) closeSubsLocked() {
	for key, ch := range j.subs {
		close(ch)
		delete(j.subs, key)
	}
}

// finishLocked moves j to a terminal state, persists the manifest,
// releases the admission reservation, emits the final event, and closes
// subscribers. Caller holds j.mu (and may hold m.mu). The state's counter
// (jobs.succeeded, jobs.failed, ...) is bumped before the state is set, so
// an observer that sees the terminal state also sees it counted.
func (m *Manager) finishLocked(j *job, state State, errStr string) {
	m.counters.Add("jobs."+string(state), 1)
	j.man.State = state
	j.man.Error = errStr
	j.man.FinishedAt = time.Now()
	j.x = nil
	if j.reserved > 0 {
		m.guard.Release(j.reserved)
		j.reserved = 0
	}
	if err := m.spool.SaveManifest(&j.man); err != nil {
		m.cfg.Logf("jobs: persist %s manifest for %s: %v", state, j.man.ID, err)
	}
	j.emitLocked(Event{Type: "state", JobID: j.man.ID, State: state,
		Error: errStr, Attempt: j.man.Attempt})
	j.closeSubsLocked()
}

// Drain gracefully shuts the Manager down: admission stops (ErrDraining),
// every running job is canceled with a drain cause — which makes the
// tucker driver snapshot it on the way out and the runner persist it
// back to Queued — and every runner is joined. Queued jobs stay queued
// in the spool. ctx bounds the wait; expiry returns an error with the
// fleet still draining in the background. Idempotent.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	var cancels []context.CancelCauseFunc
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel(ErrDraining)
	}
	if first {
		m.counters.Add("jobs.drains", 1)
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain: %w", context.Cause(ctx))
	}
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.rootCancel(ErrDraining)
	return nil
}

// Close drains with a generous internal deadline; use Drain for a
// caller-controlled one.
func (m *Manager) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return m.Drain(ctx)
}

// errAttemptPanic wraps a panic recovered from a run attempt (outside
// the engine's own per-worker capture), so the classifier treats it like
// a worker crash instead of killing the runner goroutine.
var errAttemptPanic = errors.New("jobs: run attempt panicked")
