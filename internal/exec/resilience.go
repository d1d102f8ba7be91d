package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
)

// ErrWorkerPanic is the sentinel wrapped by every recovered worker panic;
// callers test for it with errors.Is. kernels.ErrWorkerPanic aliases it.
var ErrWorkerPanic = errors.New("exec: worker panicked")

// PanicError carries a panic recovered from a plan worker: the plan it ran,
// the panic value, and the goroutine stack at recovery time.
type PanicError struct {
	Plan  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: worker panicked in plan %s: %v", e.Plan, e.Value)
}

// Is reports true for ErrWorkerPanic so errors.Is matches the sentinel.
func (e *PanicError) Is(target error) bool { return target == ErrWorkerPanic }

// capturePanic converts an in-flight panic into a *PanicError stored at
// *errp (unless an error is already recorded). Deferred at the top of
// every worker slot so a crashing body degrades to an error return
// instead of killing the process.
func capturePanic(errp *error, plan string) {
	if r := recover(); r != nil && *errp == nil {
		*errp = &PanicError{Plan: plan, Value: r, Stack: debug.Stack()}
	}
}

// IsCanceled is a nil-safe non-blocking poll: it reports whether ctx is
// non-nil and done.
func IsCanceled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Cause returns the error a canceled computation should surface: the
// cancel cause when one was attached via context.WithCancelCause, else
// the plain context error.
func Cause(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// FirstNonFinite returns the index of the first NaN or ±Inf in data, or
// -1 when every value is finite. The engine provides the scan (one pass,
// no allocation); what to *do* about a poisoned output — jittered
// restarts, breakdown classification — is policy and stays with the
// caller (see tucker's health sentinels).
//
// A float64 is NaN or ±Inf exactly when its eleven exponent bits are all
// set, so the scan tests those bits, four entries per step, and walks the
// step that holds a hit to find the first: memory speed on the multi-MB
// outputs the drivers check every sweep.
func FirstNonFinite(data []float64) int {
	const exp = 0x7ff0_0000_0000_0000
	i := 0
	for ; i+4 <= len(data); i += 4 {
		a := math.Float64bits(data[i]) & exp
		b := math.Float64bits(data[i+1]) & exp
		c := math.Float64bits(data[i+2]) & exp
		d := math.Float64bits(data[i+3]) & exp
		if a == exp || b == exp || c == exp || d == exp {
			break
		}
	}
	for ; i < len(data); i++ {
		if math.Float64bits(data[i])&exp == exp {
			return i
		}
	}
	return -1
}
