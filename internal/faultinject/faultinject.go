// Package faultinject is the hook-based fault-injection harness behind the
// resilience test suite. Production code fires named sites at the places
// where the runtime can fail — a memory-guard reservation, a kernel worker
// loop, a driver iteration, a kernel output buffer — and tests arm hooks at
// those sites to force guard rejections, worker panics, context
// cancellations, or poisoned (NaN) outputs at a chosen hit count.
//
// The harness is build-tag-free: the sites are always compiled in, and the
// disarmed fast path is a single atomic load (no map lookup, no lock), so
// the cost in production binaries is negligible even inside per-non-zero
// loops. Hooks are process-global; tests that arm them must not run in
// parallel with each other (use the returned disarm func, typically via
// t.Cleanup).
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Site names an injection point. The constants below are the sites wired
// into the runtime; tests may also define private sites of their own.
type Site string

const (
	// SiteGuardReserve fires inside memguard.Guard.Reserve with the
	// reservation's description string as payload. A non-nil hook error
	// forces the reservation to fail with memguard.ErrOutOfMemory.
	SiteGuardReserve Site = "memguard.reserve"
	// SiteKernelWorker fires inside every kernel worker loop (lattice
	// owner, UCOO, n-ary) once per processed non-zero, with the
	// non-zero index as payload. A hook may panic — simulating a worker
	// crash — or return an error, which aborts the kernel.
	SiteKernelWorker Site = "kernels.worker"
	// SiteKernelOutput fires after a kernel fills its output, with the
	// *linalg.Matrix as payload. Hooks typically mutate the buffer (e.g.
	// writing a NaN) and return nil; a non-nil error aborts the kernel.
	SiteKernelOutput Site = "kernels.output"
	// SiteIteration fires at the top of every Tucker driver iteration with
	// the 0-based iteration number as payload. Hooks typically cancel a
	// context; a non-nil error aborts the run.
	SiteIteration Site = "tucker.iteration"
	// SiteJobAdmit fires inside the job server's admission path
	// (internal/jobs) with the submitted *jobs.Spec as payload, before any
	// queue or guard check. A non-nil hook error makes admission fail as
	// saturation (HTTP 429 + Retry-After), exercising the client-side
	// backoff contract.
	SiteJobAdmit Site = "jobs.admit"
	// SiteJobRun fires at the top of every job run attempt (internal/jobs)
	// with the job ID as payload. A non-nil hook error is fed to the
	// server's retry classifier as a retryable worker failure; a hook may
	// also panic to simulate a runner crash.
	SiteJobRun Site = "jobs.run"
)

// Hook inspects (and may mutate) the payload fired at a site. Returning a
// non-nil error makes Fire return it to the production code; panicking
// propagates into the calling goroutine, which is how worker crashes are
// simulated.
type Hook func(payload any) error

var (
	// armedCount short-circuits Fire when nothing is armed anywhere.
	armedCount atomic.Int64

	mu    sync.Mutex
	hooks = map[Site][]*armedHook{}
)

type armedHook struct {
	fn    Hook
	fires atomic.Int64
}

// Arm registers a hook at site and returns the function that removes it.
// Multiple hooks may be armed at one site; they fire in arming order and
// the first non-nil error wins.
func Arm(site Site, hook Hook) (disarm func()) {
	ah := &armedHook{fn: hook}
	mu.Lock()
	hooks[site] = append(hooks[site], ah)
	mu.Unlock()
	armedCount.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			list := hooks[site]
			for i, h := range list {
				if h == ah {
					hooks[site] = append(list[:i:i], list[i+1:]...)
					break
				}
			}
			if len(hooks[site]) == 0 {
				delete(hooks, site)
			}
			mu.Unlock()
			armedCount.Add(-1)
		})
	}
}

// Fire invokes the hooks armed at site, if any, and returns the first
// non-nil hook error. With nothing armed it is a single atomic load.
func Fire(site Site, payload any) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return fireSlow(site, payload)
}

func fireSlow(site Site, payload any) error {
	mu.Lock()
	list := append([]*armedHook(nil), hooks[site]...)
	mu.Unlock()
	for _, h := range list {
		h.fires.Add(1)
		if err := h.fn(payload); err != nil {
			return err
		}
	}
	return nil
}

// Active reports whether any hook is armed at any site (for tests asserting
// cleanup).
func Active() bool { return armedCount.Load() > 0 }

// OnHit wraps hook so it runs only on the n-th time the wrapped hook is
// fired (1-based); every other hit is a no-op. Use it to trigger a fault
// deep inside a run — e.g. the 1000th processed non-zero.
func OnHit(n int64, hook Hook) Hook {
	var hits atomic.Int64
	return func(payload any) error {
		if hits.Add(1) == n {
			return hook(payload)
		}
		return nil
	}
}

// AfterN wraps hook so it runs on every hit strictly after the first n;
// the first n hits are no-ops. AfterN(0, h) fires always.
func AfterN(n int64, hook Hook) Hook {
	var hits atomic.Int64
	return func(payload any) error {
		if hits.Add(1) > n {
			return hook(payload)
		}
		return nil
	}
}

// Counter returns a hook that only counts its hits (via the returned
// loader), useful for asserting that a site is actually wired.
func Counter() (Hook, func() int64) {
	var hits atomic.Int64
	return func(any) error {
		hits.Add(1)
		return nil
	}, hits.Load
}
