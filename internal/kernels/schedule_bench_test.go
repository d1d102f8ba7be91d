package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// benchTensor builds the fixed scatter workload of the scheduling
// benchmarks: a moderate order-3 tensor at low rank, so the per-non-zero
// lattice work is small and the accumulation overhead (spill and
// reduction) is visible.
func benchTensor(b *testing.B) (*spsym.Tensor, *linalg.Matrix) {
	b.Helper()
	x, err := spsym.Random(spsym.RandomOptions{
		Order: 3, Dim: 1024, NNZ: 50000, Seed: 7, Values: spsym.ValueNormal,
	})
	if err != nil {
		b.Fatal(err)
	}
	u := linalg.RandomNormal(1024, 4, rand.New(rand.NewSource(8)))
	return x, u
}

// BenchmarkS3TTMcScheduling prices owner-computes accumulation across
// worker counts behind EXPERIMENTS.md §scheduling. The sched=owner-computes
// name segment predates the removal of the striped-lock ablation and is
// kept so snapshots compare row for row with the committed BENCH_*.json.
func BenchmarkS3TTMcScheduling(b *testing.B) {
	x, u := benchTensor(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sched=owner-computes/workers=%d", workers), func(b *testing.B) {
			var scheds ScheduleCache
			m := obs.New()
			opts := Options{Workers: workers, Schedules: &scheds, Obs: m}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := S3TTMcSymProp(x, u, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPlanMetrics(b, m)
		})
	}
}

// BenchmarkUCOOScheduling repeats the measurement on the UCOO baseline,
// whose scatter phase (full R^{N-1}-wide rows) stresses the spill buffers
// hardest. Names as in BenchmarkS3TTMcScheduling.
func BenchmarkUCOOScheduling(b *testing.B) {
	x, u := benchTensor(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("sched=owner-computes/workers=%d", workers), func(b *testing.B) {
			var scheds ScheduleCache
			opts := Options{Workers: workers, Schedules: &scheds}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := S3TTMcUCOO(x, u, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkS3TTMcFused is the codegen-v2 ablation behind docs/CODEGEN.md:
// the same SymProp kernel with the fused per-(order, rank) evaluators on
// (FusionAuto) and off (FusionOff, the generic lattice path), across grid
// cells of different order and rank. Output is bit-identical either way
// (TestFusedMatchesGenericBitwise), so the delta is pure dispatch +
// fusion overhead recovery.
func BenchmarkS3TTMcFused(b *testing.B) {
	for _, sh := range []struct{ order, dim, nnz, r int }{
		{3, 1024, 50000, 4},
		{3, 1024, 50000, 8},
		{4, 256, 20000, 4},
	} {
		x, err := spsym.Random(spsym.RandomOptions{
			Order: sh.order, Dim: sh.dim, NNZ: sh.nnz, Seed: 7, Values: spsym.ValueNormal,
		})
		if err != nil {
			b.Fatal(err)
		}
		u := linalg.RandomNormal(sh.dim, sh.r, rand.New(rand.NewSource(8)))
		for _, fusion := range []Fusion{FusionAuto, FusionOff} {
			name := fmt.Sprintf("order=%d/rank=%d/fusion=%v", sh.order, sh.r, fusion)
			b.Run(name, func(b *testing.B) {
				var scheds ScheduleCache
				m := obs.New()
				opts := Options{Workers: 4, Schedules: &scheds, Fusion: fusion, Obs: m}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := S3TTMcSymProp(x, u, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportPlanMetrics(b, m)
			})
		}
	}
}

// reportPlanMetrics attaches the engine's per-plan counters as custom
// benchmark columns (benchjson stores them in the snapshot's extra map):
// per-op worker busy time and the run's load-imbalance ratio per plan.
func reportPlanMetrics(b *testing.B, m *obs.Metrics) {
	b.Helper()
	for _, pm := range m.Snapshot() {
		b.ReportMetric(float64(pm.BusyNs)/float64(b.N), pm.Name+"-busy-ns/op")
		b.ReportMetric(pm.Imbalance, pm.Name+"-imbalance")
	}
}

// BenchmarkScheduleBuild prices the binning pass itself — the cost a cold
// ScheduleCache adds to the first sweep of a Tucker run.
func BenchmarkScheduleBuild(b *testing.B) {
	x, _ := benchTensor(b)
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildSchedule(x, workers)
			}
		})
	}
}
