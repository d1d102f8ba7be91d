package jobs

// The runner fleet: each runner goroutine owns one exec.Pool for its
// whole lifetime (the pool-ownership contract — drivers borrow it via
// Options.Pool and never close it) and loops popping jobs, running the
// retry loop, and persisting every state transition before acting on it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

func (m *Manager) runner(idx int) {
	defer m.wg.Done()
	pool := exec.NewPool(m.cfg.JobWorkers)
	defer pool.Close()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j, pool)
		m.mu.Lock()
		m.running--
		m.counters.Set("jobs.running", int64(m.running))
		m.mu.Unlock()
	}
}

// next blocks for the next runnable job, expiring stale ones on the way;
// nil means the Manager is draining and the runner must exit.
func (m *Manager) next() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining || m.closed {
			return nil
		}
		j := m.dequeueLocked()
		if j == nil {
			m.cond.Wait()
			continue
		}
		j.mu.Lock()
		if j.man.State.Terminal() { // canceled while queued, already finished
			j.mu.Unlock()
			continue
		}
		if m.cfg.QueueTTL > 0 && time.Since(j.man.EnqueuedAt) > m.cfg.QueueTTL {
			m.finishLocked(j, StateExpired,
				fmt.Sprintf("expired after %s in queue (ttl %s)",
					time.Since(j.man.EnqueuedAt).Round(time.Millisecond), m.cfg.QueueTTL))
			j.mu.Unlock()
			continue
		}
		j.mu.Unlock()
		m.running++
		m.counters.Set("jobs.running", int64(m.running))
		return j
	}
}

// jobSink adapts a job into the driver's per-sweep trace sink.
type jobSink struct{ j *job }

func (s jobSink) Emit(ev obs.TraceEvent) error {
	s.j.mu.Lock()
	s.j.emitLocked(Event{Type: "trace", JobID: s.j.man.ID,
		Attempt: s.j.man.Attempt, Trace: &traceJSON{
			Sweep: ev.Sweep, Objective: ev.Objective, RelError: ev.RelError,
			Fit: ev.Fit, WallNs: ev.WallNs,
		}})
	s.j.mu.Unlock()
	return nil
}

// runJob executes one job's retry loop on the runner's pool and leaves
// the job in a persisted terminal state — or back in Queued if the run
// was interrupted by drain (the next process resumes it).
func (m *Manager) runJob(j *job, pool *exec.Pool) {
	// Build the job context: root (dies on Close) → optional per-job
	// deadline anchored at the first start (so restarts don't extend it)
	// → the cancel handle Cancel/Drain use to install a cause.
	j.mu.Lock()
	if j.man.StartedAt.IsZero() {
		j.man.StartedAt = time.Now()
	}
	base := m.rootCtx
	var deadlineCancel context.CancelFunc
	if t := j.man.Spec.TimeoutSec; t > 0 {
		base, deadlineCancel = context.WithDeadline(base,
			j.man.StartedAt.Add(time.Duration(t*float64(time.Second))))
	}
	ctx, cancel := context.WithCancelCause(base)
	j.cancel = cancel
	j.man.State = StateRunning
	if err := m.spool.SaveManifest(&j.man); err != nil {
		m.cfg.Logf("jobs: persist running manifest %s: %v", j.man.ID, err)
	}
	j.emitLocked(Event{Type: "state", JobID: j.man.ID, State: StateRunning,
		Attempt: j.man.Attempt + 1})
	x := j.x
	// The job is running: the admission reservation hands over to the
	// kernels' own reservations against the same guard.
	if j.reserved > 0 {
		m.guard.Release(j.reserved)
		j.reserved = 0
	}
	j.mu.Unlock()
	defer func() {
		cancel(nil)
		if deadlineCancel != nil {
			deadlineCancel()
		}
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
	}()

	if x == nil { // requeued by a previous drain in this same process
		var err error
		x, err = m.spool.LoadTensor(j.man.ID)
		if err != nil {
			j.mu.Lock()
			m.finishLocked(j, StateFailed, fmt.Sprintf("spool tensor unreadable: %v", err))
			j.mu.Unlock()
			return
		}
	}

	policy := &m.cfg.Retry
	for {
		j.mu.Lock()
		j.man.Attempt++
		attempt := j.man.Attempt
		if err := m.spool.SaveManifest(&j.man); err != nil {
			m.cfg.Logf("jobs: persist attempt manifest %s: %v", j.man.ID, err)
		}
		j.mu.Unlock()

		res, err := m.runAttempt(ctx, j, x, pool)
		if err == nil {
			m.succeed(j, res)
			return
		}
		switch policy.Classify(err) {
		case ClassDrained:
			// The driver snapshotted on the way out (cancel-with-cause →
			// canceledErr best-effort save). Back to Queued: the next
			// process — or a later runner, if the root ctx survived —
			// picks the job up from the checkpoint.
			j.mu.Lock()
			j.man.State = StateQueued
			j.man.Error = ""
			if serr := m.spool.SaveManifest(&j.man); serr != nil {
				m.cfg.Logf("jobs: persist requeued manifest %s: %v", j.man.ID, serr)
			}
			j.emitLocked(Event{Type: "state", JobID: j.man.ID,
				State: StateQueued, Attempt: attempt})
			j.mu.Unlock()
			m.counters.Add("jobs.requeued", 1)
			return
		case ClassCanceled:
			reason := "canceled by client"
			if errors.Is(err, context.DeadlineExceeded) {
				reason = fmt.Sprintf("deadline exceeded after %gs", j.man.Spec.TimeoutSec)
			}
			j.mu.Lock()
			m.finishLocked(j, StateCanceled, reason+": "+err.Error())
			j.mu.Unlock()
			return
		case ClassRetryable:
			j.mu.Lock()
			j.man.Retries++
			retries := j.man.Retries
			exhausted := attempt >= policy.MaxAttempts
			if exhausted {
				m.finishLocked(j, StateFailed,
					fmt.Sprintf("retries exhausted after %d attempts: %v", attempt, err))
			} else {
				j.man.Error = err.Error() // visible in status while backing off
				if serr := m.spool.SaveManifest(&j.man); serr != nil {
					m.cfg.Logf("jobs: persist retry manifest %s: %v", j.man.ID, serr)
				}
			}
			j.mu.Unlock()
			if exhausted {
				return
			}
			m.counters.Add("jobs.retries", 1)
			d := policy.Delay(retries)
			m.cfg.Logf("jobs: %s attempt %d failed (%v); retry %d in %s",
				j.man.ID, attempt, err, retries, d.Round(time.Millisecond))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				// Cancel or drain arrived mid-backoff; loop once more — the
				// next attempt fails immediately with the ctx cause and is
				// classified above.
			}
		default: // ClassTerminal
			j.mu.Lock()
			m.finishLocked(j, StateFailed, err.Error())
			j.mu.Unlock()
			return
		}
	}
}

// runAttempt performs one driver run, resuming from the job's checkpoint
// when one exists. Panics from the fault hook or the driver itself are
// recovered into a retryable error so a crashing attempt never takes the
// runner goroutine down with it.
func (m *Manager) runAttempt(ctx context.Context, j *job, x *spsym.Tensor, pool *exec.Pool) (res *tucker.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", errAttemptPanic, r)
		}
	}()
	if ferr := faultinject.Fire(faultinject.SiteJobRun, j.man.ID); ferr != nil {
		return nil, fmt.Errorf("%w: %v", errInjectedRunFault, ferr)
	}

	ckptPath := m.spool.CheckpointPath(j.man.ID)
	var resume *checkpoint.State
	if st, lerr := checkpoint.Load(ckptPath); lerr == nil {
		resume = st
	} else if !errors.Is(lerr, os.ErrNotExist) {
		// A torn or foreign snapshot must not wedge the job: discard it
		// and restart the attempt from scratch.
		m.counters.Add("jobs.ckpt_discarded", 1)
		m.cfg.Logf("jobs: %s discarding unusable checkpoint: %v", j.man.ID, lerr)
		os.Remove(ckptPath)
	}

	spec := j.man.Spec
	opts := tucker.Options{
		Rank:            spec.Rank,
		MaxIters:        spec.MaxIters,
		Tol:             spec.Tol,
		Seed:            spec.Seed,
		Workers:         j.man.Workers, // resolved at admission: fingerprint-stable
		Guard:           m.guard,
		Pool:            pool,
		Ctx:             ctx,
		CheckpointPath:  ckptPath,
		CheckpointEvery: spec.CheckpointEvery,
		Resume:          resume,
		Metrics:         m.cfg.Metrics,
		TraceSink:       jobSink{j},
	}
	switch spec.Algo {
	case "", "hoqri":
		return tucker.HOQRI(x, opts)
	case "hooi":
		return tucker.HOOI(x, opts)
	case "hooi-randomized":
		return tucker.HOOIRandomized(x, opts)
	default: // validate() rejects this; defense in depth
		return nil, fmt.Errorf("%w: unknown algo %q", ErrInvalidSpec, spec.Algo)
	}
}

// succeed persists the result factor and moves the job to Succeeded. The
// checkpoint is kept: it is the proof of lineage for the smoke test and
// is removed with the job directory.
func (m *Manager) succeed(j *job, res *tucker.Result) {
	path := m.spool.ResultPath(j.man.ID)
	if err := checkpoint.WriteFileAtomic(path, func(f *os.File) error {
		return linalg.WriteFactor(f, res.U)
	}); err != nil {
		j.mu.Lock()
		m.finishLocked(j, StateFailed, fmt.Sprintf("write result: %v", err))
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	j.man.Iters = res.Iters
	j.man.RelError = res.FinalRelError()
	j.man.Converged = res.Converged
	m.finishLocked(j, StateSucceeded, "")
	j.mu.Unlock()
}
