// Package exec is the execution engine behind every parallel loop in the
// module. It owns the two things the kernels used to duplicate:
//
//   - Worker lifecycle. A Pool is a persistent set of goroutines created
//     once per decomposition run (tucker.Options.Pool) and reused across
//     every kernel call of every sweep, so iterative drivers stop paying
//     goroutine spawn per call. A nil Pool still works — fan-out falls
//     back to transient goroutines — so one-shot callers need no setup.
//
//   - The worker loop contract. Run executes a Plan {items, partitioning,
//     per-worker scratch, body, finish} and centralizes context polling,
//     cancel causes, panic capture into ErrWorkerPanic, and the
//     faultinject worker/output sites. Kernels describe *what* each
//     worker does; the engine owns *how* workers run.
//
// Run is the module's only compute fan-out: the sparse kernels, the dense
// products of internal/linalg (linalg.RunRows) and HOOI's SVD step all run
// as named plans, so every parallel loop is cancellable, fault-injectable
// and visible in the per-plan metrics. symlint's planrace, tickpoll,
// hotalloc and fpdeterm analyzers check the plan callbacks.
//
// Nesting caveat: a Plan body must not call Run on the same Pool it is
// running on — with all pool workers busy, the nested fan-out's submitted
// slots would wait forever. Nested parallelism inside a body should pass
// a nil pool (transient goroutines) or stay serial.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines that plan slots are
// dispatched onto. The zero of *Pool (nil) is valid everywhere a Pool is
// accepted and means "no resident workers": fan-out uses transient
// goroutines instead.
type Pool struct {
	tasks  chan func()
	wg     sync.WaitGroup
	closed atomic.Bool
}

// poolsCreated counts NewPool calls process-wide. It exists for tests
// asserting pool reuse (e.g. that nested drivers share one pool instead of
// creating one per inner run); it never wraps in practice.
var poolsCreated atomic.Int64

// PoolsCreated returns the number of pools created since process start —
// a monotone counter for pool-reuse assertions in tests.
func PoolsCreated() int64 { return poolsCreated.Load() }

// NewPool starts size resident worker goroutines (GOMAXPROCS when
// size <= 0). The pool must be released with Close when the run ends.
//
// Ownership contract: whoever calls NewPool owns the pool and is the only
// party that may Close it. Code that *accepts* a pool (kernels.Options.Exec,
// tucker.Options.Pool) must treat it as borrowed — use it, never close it.
// Close is idempotent and nil-safe, so owners may defer it unconditionally.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	poolsCreated.Add(1)
	p := &Pool{tasks: make(chan func())}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Close stops the resident workers and waits for them to exit. It is
// idempotent and nil-safe; fan-out through a closed pool degrades to
// transient goroutines rather than failing.
func (p *Pool) Close() {
	if p == nil || p.closed.Swap(true) {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}

// submit hands task to a resident worker, falling back to a transient
// goroutine when the pool is nil or closed.
func (p *Pool) submit(task func()) {
	if p == nil || p.closed.Load() {
		go task()
		return
	}
	p.tasks <- task
}

// dispatch fans task out across n slots and joins them. Slot 0 runs on the
// calling goroutine — the caller is itself a worker — so a pool sized to
// the worker count leaves one resident worker free for concurrent callers.
func (p *Pool) dispatch(n int, task func(slot int)) {
	if n <= 1 {
		task(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for slot := 1; slot < n; slot++ {
		s := slot
		p.submit(func() {
			defer wg.Done()
			task(s)
		})
	}
	task(0)
	wg.Wait()
}

// ChunkRange returns worker w's half-open share of [0, n) under the
// balanced static split: every worker gets n/workers items and the first
// n%workers workers get one extra.
func ChunkRange(n, workers, w int) (lo, hi int) {
	base, rem := n/workers, n%workers
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}
