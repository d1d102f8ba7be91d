// Package jobs is the crash-tolerant decomposition job server behind
// cmd/symprop-serve (docs/SERVING.md): a Manager that admits decomposition
// requests into bounded per-tenant queues, runs them on a fixed fleet of
// exec.Pool-backed runner goroutines, and spends the resilience runtime —
// checkpoint/resume, fault injection, memguard, per-plan observability —
// to survive worker panics, memory pressure, numeric breakdown, client
// disconnects, process crashes, and SIGTERM without losing or corrupting
// work.
//
// The robustness contract, in order of the failure model (DESIGN.md §7):
//
//   - Admission control. Submit reserves the job's estimated kernel
//     footprint against a server-wide memguard.Guard and enforces bounded
//     per-tenant and global queue depths; saturation is a typed
//     ErrSaturated carrying a Retry-After hint (HTTP 429), never an
//     unbounded queue. Queued jobs expire after Config.QueueTTL.
//
//   - Retry with backoff. A run that dies from a retryable failure —
//     worker panic (kernels.ErrWorkerPanic), numeric breakdown
//     (tucker.ErrNumericBreakdown), memory-guard rejection
//     (memguard.ErrOutOfMemory), or an injected jobs.run fault — is
//     retried up to RetryPolicy.MaxAttempts times with jittered
//     exponential backoff, resuming from the job's last checkpoint so
//     completed sweeps are never recomputed. Everything else is terminal
//     and surfaces as the Failed state with the error recorded.
//
//   - Crash-resumable jobs. Every job lives in a server-owned spool
//     directory: an atomically written JSON manifest, the job's tensor,
//     the periodic SYMCKPT checkpoint, and (on success) the factor
//     matrix. A server restarted over the same spool rescans its
//     manifests (Spool.Rescan: an unreadable entry comes back as a
//     RescanIssue, is skipped and counted in jobs.spool_skipped),
//     requeues every non-terminal job, and resumes from the checkpoint —
//     the resumed run's result is bit-identical to an uninterrupted one
//     (scripts/serve_smoke.sh proves it through a real SIGKILL).
//
//   - Graceful drain. Drain stops admission (ErrDraining, HTTP 503),
//     cancels running jobs with a drain cause so the tucker driver
//     snapshots them on the way out, persists their manifests back to
//     Queued, and joins every runner. A drained server exits with no
//     goroutine leaks and a spool from which the next process continues.
//
// Per-job deadlines and client cancellation ride the existing ctx
// plumbing (tucker.Options.Ctx); trace events stream to subscribers per
// job (Server exposes them as SSE) and the control-plane counters land in
// an obs.Counters set next to the per-plan obs.Metrics.
package jobs

import (
	"errors"
	"fmt"
	"time"
)

// Admission and lookup errors. The HTTP layer maps these to status codes;
// programmatic callers detect them with errors.Is.
var (
	// ErrSaturated marks an admission rejected for capacity: a full
	// tenant or global queue, or a memory-guard reservation failure (the
	// chain then also matches memguard.ErrOutOfMemory). Mapped to HTTP
	// 429 with a Retry-After header.
	ErrSaturated = errors.New("jobs: server saturated, retry later")
	// ErrDraining marks an admission rejected because the server is
	// shutting down. Mapped to HTTP 503 with a Retry-After header.
	ErrDraining = errors.New("jobs: server draining")
	// ErrUnknownJob marks a lookup of a job ID the spool has never seen.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrInvalidSpec marks a submission that failed validation before any
	// capacity check. Mapped to HTTP 400.
	ErrInvalidSpec = errors.New("jobs: invalid job spec")
	// ErrNotTerminal marks an operation that needs a finished job (e.g.
	// fetching the result of one still running). Mapped to HTTP 409.
	ErrNotTerminal = errors.New("jobs: job has not finished")
)

// errCanceledByClient is the cancel cause installed by Manager.Cancel;
// the retry classifier maps it to the Canceled terminal state.
var errCanceledByClient = errors.New("jobs: canceled by client")

// State is a job's lifecycle state. Queued and Running are live (a
// restart requeues them); the rest are terminal.
type State string

const (
	// StateQueued: admitted, persisted in the spool, waiting for a runner.
	StateQueued State = "queued"
	// StateRunning: a runner is executing (or retrying) the job.
	StateRunning State = "running"
	// StateSucceeded: the decomposition finished; the factor matrix is in
	// the spool and served via the result endpoint.
	StateSucceeded State = "succeeded"
	// StateFailed: a terminal error, or retries exhausted; Status.Error
	// holds the last error.
	StateFailed State = "failed"
	// StateCanceled: stopped by client request or per-job deadline before
	// completing.
	StateCanceled State = "canceled"
	// StateExpired: waited in the queue past its TTL without ever running.
	StateExpired State = "expired"
)

// Terminal reports whether s is a final state (no runner will touch the
// job again).
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCanceled, StateExpired:
		return true
	}
	return false
}

// Spec is a decomposition job as submitted by a client. Exactly one of
// Tensor (inline symmetric text format) and TensorPath (server-local
// file, text or binary) must be set; admission copies the tensor into the
// spool either way, so a running server never depends on the original
// path again.
type Spec struct {
	// Tenant scopes the per-tenant queue bound and fairness; empty means
	// the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Tensor is the tensor inline, in the symmetric text format.
	Tensor string `json:"tensor,omitempty"`
	// TensorPath is a server-local tensor file (text or binary).
	TensorPath string `json:"tensor_path,omitempty"`
	// Rank is the Tucker rank R (required).
	Rank int `json:"rank"`
	// Algo selects the driver: "hoqri" (default), "hooi", or
	// "hooi-randomized".
	Algo string `json:"algo,omitempty"`
	// MaxIters bounds the sweeps (default 50).
	MaxIters int `json:"max_iters,omitempty"`
	// Tol is the relative-objective stopping tolerance (0 = run all).
	Tol float64 `json:"tol,omitempty"`
	// Seed drives random initialization (and, with Workers, the resume
	// fingerprint).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the per-job kernel parallelism; 0 uses the server's
	// Config.JobWorkers. The resolved value is persisted in the manifest
	// so a resumed job keeps its reduction order (bit-identity).
	Workers int `json:"workers,omitempty"`
	// Deprecated: ignored. Every job runs on one owner-computes engine of
	// Workers goroutines. A negative value is still rejected, so a
	// request that was invalid stays invalid.
	Shards int `json:"shards,omitempty"`
	// CheckpointEvery is the snapshot period in iterations; <= 0 uses
	// tucker.DefaultCheckpointEvery.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// TimeoutSec is the per-job wall-clock deadline across all attempts;
	// 0 means no deadline. Exceeding it cancels the job (terminal).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

func (s *Spec) validate() error {
	if s.Rank < 1 {
		return fmt.Errorf("%w: rank %d (want >= 1)", ErrInvalidSpec, s.Rank)
	}
	if (s.Tensor == "") == (s.TensorPath == "") {
		return fmt.Errorf("%w: exactly one of tensor and tensor_path must be set", ErrInvalidSpec)
	}
	switch s.Algo {
	case "", "hoqri", "hooi", "hooi-randomized":
	default:
		return fmt.Errorf("%w: unknown algo %q", ErrInvalidSpec, s.Algo)
	}
	if s.MaxIters < 0 || s.TimeoutSec < 0 || s.CheckpointEvery < 0 || s.Workers < 0 || s.Shards < 0 {
		return fmt.Errorf("%w: negative max_iters/timeout_sec/checkpoint_every/workers/shards", ErrInvalidSpec)
	}
	return nil
}

// tenant returns the queue key, mapping the empty tenant to "default".
func (s *Spec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// Status is a job's externally visible state, served as JSON by the
// status endpoint.
type Status struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Attempt is the 1-based run attempt currently or last executed; 0
	// before the first run.
	Attempt int `json:"attempt"`
	// Retries counts backoff retries performed so far.
	Retries int `json:"retries"`
	// Error is the last error, set for Failed/Canceled/Expired.
	Error string `json:"error,omitempty"`
	// Checkpointed reports whether a resumable snapshot exists in the
	// spool (the kill-the-server smoke test polls it before the SIGKILL).
	Checkpointed bool `json:"checkpointed"`
	// Iters/RelError/Converged summarize the result for Succeeded jobs.
	Iters      int     `json:"iters,omitempty"`
	RelError   float64 `json:"rel_error,omitempty"`
	Converged  bool    `json:"converged,omitempty"`
	EnqueuedAt int64   `json:"enqueued_at_unix_ms,omitempty"`
	StartedAt  int64   `json:"started_at_unix_ms,omitempty"`
	FinishedAt int64   `json:"finished_at_unix_ms,omitempty"`
}

// Event is one job lifecycle or trace occurrence, streamed to subscribers
// (the SSE endpoint) as JSON.
type Event struct {
	// Type is "state" for lifecycle transitions, "trace" for per-sweep
	// decomposition trace events.
	Type  string `json:"type"`
	JobID string `json:"job_id"`
	// State and Error accompany "state" events.
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Attempt is the run attempt the event belongs to (0 for queue-side
	// transitions).
	Attempt int `json:"attempt,omitempty"`
	// Trace accompanies "trace" events: the sweep's obs record.
	Trace *traceJSON `json:"trace,omitempty"`
}

// traceJSON is obs.TraceEvent re-declared structurally so the Event JSON
// schema is self-contained; see docs/OBSERVABILITY.md for field meaning.
type traceJSON struct {
	Sweep     int     `json:"sweep"`
	Objective float64 `json:"objective"`
	RelError  float64 `json:"rel_error"`
	Fit       float64 `json:"fit"`
	WallNs    int64   `json:"wall_ns"`
}

// unixMS converts a time to the millisecond timestamps Status carries
// (0 for the zero time).
func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}
