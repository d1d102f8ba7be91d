package kernels

import (
	"fmt"
	"testing"

	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/obs"
)

// TestObsChangesNoOutputBits runs S3TTMcSymProp with a live metrics
// collector (pprof labels armed, a phase set — the full instrumented
// path) and demands bit-identical output against the uninstrumented run,
// across worker counts, on transient goroutines and on a persistent engine
// pool. Observability must be a pure read on the side: timing wraps and
// label contexts may not perturb partitioning, accumulation order, or
// scratch reuse.
func TestObsChangesNoOutputBits(t *testing.T) {
	x, u := dyadicCase(t, 3, 48, 900, 3, 74)
	for _, workers := range []int{1, 7} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/pooled=%v", workers, pooled), func(t *testing.T) {
				base := Options{Workers: workers}
				if pooled {
					pool := exec.NewPool(workers)
					defer pool.Close()
					base.Exec = pool
				}
				plain, err := S3TTMcSymProp(x, u, base)
				if err != nil {
					t.Fatal(err)
				}
				m := obs.New()
				m.EnablePprofLabels()
				m.SetPhase("determinism-check")
				instrumented := base
				instrumented.Obs = m
				got, err := S3TTMcSymProp(x, u, instrumented)
				if err != nil {
					t.Fatal(err)
				}
				for i := range plain.Data {
					if got.Data[i] != plain.Data[i] {
						t.Fatalf("bit mismatch at %d with obs armed: got %x, want %x",
							i, got.Data[i], plain.Data[i])
					}
				}
				if len(m.Snapshot()) == 0 {
					t.Fatal("collector recorded nothing — instrumentation not wired")
				}
			})
		}
	}
}
