// Package memguard simulates a bounded-memory machine. The paper's
// experiments ran on a 256 GB node and several baselines terminate with
// "OOM" (Figs. 4, 5, 7); reproducing those outcomes on arbitrary hardware
// requires a deterministic budget rather than an actual crash. Every
// allocation-heavy code path in this module asks the guard before
// allocating and surfaces ErrOutOfMemory when the projected footprint
// exceeds the budget.
//
// Semantics: reservations model the *peak footprint of a phase* — a kernel
// reserves its outputs and workspaces for the duration of the call and
// releases them on return, even when the output object outlives the call.
// Cross-phase residency (e.g. the compact Y alive while HOOI's SVD runs)
// is therefore approximated by each phase's own dominant term, which is
// accurate wherever the comparison matters because the phases' footprints
// differ by orders of magnitude.
package memguard

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"

	"github.com/symprop/symprop/internal/faultinject"
)

// ErrOutOfMemory is returned (wrapped) whenever a projected allocation
// exceeds the configured budget. Callers detect it with errors.Is.
var ErrOutOfMemory = errors.New("memguard: out of memory")

// DefaultBudget is the simulated machine size when SYMPROP_MEM_BUDGET is
// unset: 2 GiB, which scales the paper's 256 GB node down to laptop size
// while preserving which method dies on which configuration.
const DefaultBudget int64 = 2 << 30

// Guard tracks a byte budget. The zero value is unlimited; use New for a
// bounded guard. Guards are safe for concurrent use: the Tucker drivers
// share one guard across sweeps and the kernels' worker fan-out, so
// Reserve/Release pair up correctly even when phases overlap (e.g. a
// retry with reduced workers racing a late Release from the failed
// attempt).
type Guard struct {
	mu     sync.Mutex
	budget int64 // <= 0 means unlimited
	used   int64
}

// New returns a guard with the given budget in bytes. A non-positive
// budget disables all checks.
func New(budget int64) *Guard {
	return &Guard{budget: budget}
}

// FromEnv returns a guard configured from the SYMPROP_MEM_BUDGET
// environment variable (bytes; suffixes K, M, G accepted). Unset or
// unparsable values fall back to DefaultBudget; "0" disables the guard.
func FromEnv() *Guard {
	s := os.Getenv("SYMPROP_MEM_BUDGET")
	if s == "" {
		return New(DefaultBudget)
	}
	b, err := ParseBytes(s)
	if err != nil {
		return New(DefaultBudget)
	}
	return New(b)
}

// ForBudget returns the guard for a configured budget in bytes, the rule
// symprop.Options.MemoryBudget and the job server's Config.MemoryBudget
// document: 0 reads SYMPROP_MEM_BUDGET (FromEnv), a negative budget
// disables the guard (nil), and a positive one is the budget.
func ForBudget(budget int64) *Guard {
	switch {
	case budget < 0:
		return nil
	case budget == 0:
		return FromEnv()
	default:
		return New(budget)
	}
}

// ParseBytes parses a byte count with an optional K/M/G suffix.
func ParseBytes(s string) (int64, error) {
	if s == "" {
		return 0, errors.New("memguard: empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("memguard: bad size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("memguard: negative size %d", v)
	}
	return v * mult, nil
}

// Reserve records an intended allocation of n bytes, returning a wrapped
// ErrOutOfMemory if it would exceed the budget. n may be produced by
// saturating arithmetic; anything negative or huge fails immediately.
func (g *Guard) Reserve(n int64, what string) error {
	if err := faultinject.Fire(faultinject.SiteGuardReserve, what); err != nil {
		return fmt.Errorf("memguard: %s rejected by fault injection (%v): %w", what, err, ErrOutOfMemory)
	}
	if n < 0 {
		return fmt.Errorf("memguard: %s needs an impossibly large allocation: %w", what, ErrOutOfMemory)
	}
	if g == nil || g.budget <= 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.used+n > g.budget || g.used+n < 0 {
		return fmt.Errorf("memguard: %s needs %d bytes, %d of %d already used: %w",
			what, n, g.used, g.budget, ErrOutOfMemory)
	}
	g.used += n
	return nil
}

// Release returns n bytes to the budget.
func (g *Guard) Release(n int64) {
	if g == nil || g.budget <= 0 {
		return
	}
	g.mu.Lock()
	g.used -= n
	if g.used < 0 {
		g.used = 0
	}
	g.mu.Unlock()
}

// Used reports the currently reserved byte count.
func (g *Guard) Used() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// Budget reports the configured budget (0 = unlimited).
func (g *Guard) Budget() int64 {
	if g == nil || g.budget <= 0 {
		return 0
	}
	return g.budget
}

// Float64Bytes returns the byte footprint of n float64 values with
// saturation, so callers can pass products of saturating arithmetic
// directly.
func Float64Bytes(n int64) int64 {
	if n < 0 || n > (1<<60) {
		return 1 << 62 // effectively infinite; Reserve will reject it
	}
	return n * 8
}
