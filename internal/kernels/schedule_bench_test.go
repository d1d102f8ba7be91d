package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/dense"
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
// The padded-order8 row is the hoqri-walmart benchmark's input and rank,
// off the fused grid, whose leaves spill into few of the I rows. Every row
// reports its spill-bytes.
func BenchmarkS3TTMcScheduling(b *testing.B) {
	x, u := benchTensor(b)
	walmart := walmartStandIn(b, 1)
	wu := linalg.RandomNormal(walmart.Dim, 10, rand.New(rand.NewSource(8)))
	for _, c := range []struct {
		name    string
		x       *spsym.Tensor
		u       *linalg.Matrix
		workers int
	}{
		{"sched=owner-computes/workers=1", x, u, 1},
		{"sched=owner-computes/workers=2", x, u, 2},
		{"sched=owner-computes/workers=4", x, u, 4},
		{"sched=owner-computes/workers=8", x, u, 8},
		{"sched=owner-computes/padded-order8/workers=2", walmart, wu, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			var scheds ScheduleCache
			m := obs.New()
			opts := Options{Workers: c.workers, Schedules: &scheds, Obs: m}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := S3TTMcSymProp(c.x, c.u, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPlanMetrics(b, m)
			reportSpillBytes(b, &scheds, c.x, c.workers, int(dense.Count(c.x.Order-1, c.u.Cols)))
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
			b.StopTimer()
			reportSpillBytes(b, &scheds, x, workers, int(dense.Pow64(int64(u.Cols), x.Order-1)))
		})
	}
}

// reportSpillBytes attaches the spill bytes each call drew for its
// cols-wide output rows, the (x, workers) schedule's exact charge, as a
// custom benchmark column beside reportPlanMetrics'.
func reportSpillBytes(b *testing.B, scheds *ScheduleCache, x *spsym.Tensor, workers, cols int) {
	b.Helper()
	b.ReportMetric(float64(scheds.get(x, workers).spillBytes(cols)), "spill-bytes")
}

// BenchmarkS3TTMcFused is the codegen-v2 ablation behind docs/CODEGEN.md:
// the same SymProp kernel with the fused per-(order, rank) evaluators on
// (fusion=auto, the default dispatch) and off (fusion=off, the lattice
// interpreter alone), on every cell of the fused grid. Output is
// bit-identical either way (TestFusedMatchesGenericBitwise), so the delta
// is what the generated code buys over the colex interpreter; a cell stays
// on the grid only while auto beats off. Each order's tensor is shared by
// its ranks and sized so one iteration of each row stays well under a
// second.
func BenchmarkS3TTMcFused(b *testing.B) {
	for _, tc := range []struct {
		order, dim, nnz int
		ranks           []int
	}{
		{3, 1024, 50000, []int{2, 4, 8}},
		{4, 256, 20000, []int{2, 4}},
		{5, 200, 5000, []int{2, 4}},
	} {
		x, err := spsym.Random(spsym.RandomOptions{
			Order: tc.order, Dim: tc.dim, NNZ: tc.nnz, Seed: 7, Values: spsym.ValueNormal,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tc.ranks {
			u := linalg.RandomNormal(tc.dim, r, rand.New(rand.NewSource(8)))
			for _, fusion := range []string{"auto", "off"} {
				name := fmt.Sprintf("order=%d/rank=%d/fusion=%s", tc.order, r, fusion)
				b.Run(name, func(b *testing.B) {
					var scheds ScheduleCache
					m := obs.New()
					opts := Options{Workers: 4, Schedules: &scheds, Obs: m, noFusion: fusion == "off"}
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
