package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// BenchmarkS3TTMcSharded prices the shard map against the single-engine
// kernel on the scheduling benchmark workload: same tensor, same total
// worker budget, only the engine count varies. shards=1 still pays the
// wire round trip (encode → CRC → decode → merge), so the shards=1 vs
// unsharded delta is the pure serialization overhead and the shards>1
// rows show how far the fan-out amortizes it. The name carries "S3TTMc"
// so benchguard gates these rows alongside the kernel benchmarks.
func BenchmarkS3TTMcSharded(b *testing.B) {
	x, err := spsym.Random(spsym.RandomOptions{
		Order: 3, Dim: 1024, NNZ: 50000, Seed: 7, Values: spsym.ValueNormal,
	})
	if err != nil {
		b.Fatal(err)
	}
	u := linalg.RandomNormal(1024, 4, rand.New(rand.NewSource(8)))
	const workers = 8

	b.Run("unsharded", func(b *testing.B) {
		var scheds kernels.ScheduleCache
		opts := kernels.Options{Workers: workers, Schedules: &scheds}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kernels.S3TTMcSymProp(x, u, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := New(shards, workers)
			defer e.Close()
			m := obs.New()
			opts := kernels.Options{Workers: workers, Obs: m}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.S3TTMc(x, u, true, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, pm := range m.Snapshot() {
				b.ReportMetric(float64(pm.BusyNs)/float64(b.N), pm.Name+"-busy-ns/op")
				b.ReportMetric(pm.Imbalance, pm.Name+"-imbalance")
			}
		})
	}
}
