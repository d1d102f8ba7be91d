package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// dyadicTensor mirrors the kernels determinism fixtures: dyadic-rational
// values and factors make float addition associative, so results are
// exact at every worker count.
func dyadicTensor(t testing.TB, order, dim, nnz, r, seed int) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: int64(seed), Values: spsym.ValueOnes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Values {
		x.Values[i] = float64(1 + i%5)
	}
	u := linalg.NewMatrix(dim, r)
	for i := range u.Data {
		u.Data[i] = float64((i*7)%17-8) / 8
	}
	return x, u
}

// normalTensor draws arbitrary (non-dyadic) values: the bit-identity of
// the sharded path does not depend on associativity tricks.
func normalTensor(t testing.TB, order, dim, nnz, r, seed int) (*spsym.Tensor, *linalg.Matrix) {
	t.Helper()
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: int64(seed), Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	u := linalg.NewMatrix(dim, r)
	rng := func(i int) float64 { return math.Sin(float64(i)*0.7) + 0.1 }
	for i := range u.Data {
		u.Data[i] = rng(i)
	}
	return x, u
}

func mustEqualBits(t *testing.T, want, got *linalg.Matrix, label string) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(w) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: entry %d differs: % .17g vs % .17g", label, i, w, got.Data[i])
		}
	}
}

// TestShardDeterminismMatrix is the shards dimension of the determinism
// matrix: for every (fixture, workers, fusion) cell, the sharded backend
// at shards ∈ {1, 2, 4, 8} must reproduce the single-engine kernel bit for
// bit, both on a fresh engine and on a warm one whose second call reuses
// the per-engine plan, workspace, schedule and spill caches the first call
// filled (the sweep-to-sweep pattern of a sharded Tucker run).
func TestShardDeterminismMatrix(t *testing.T) {
	fixtures := []struct {
		name                  string
		order, dim, nnz, rank int
	}{
		{"order3", 3, 48, 900, 3},
		{"order4", 4, 24, 400, 3},
		{"order3r4", 3, 48, 900, 4}, // hits the fused (3, 4) evaluator
	}
	for _, fx := range fixtures {
		x, u := dyadicTensor(t, fx.order, fx.dim, fx.nnz, fx.rank, 7)
		for _, workers := range []int{1, 2, 7} {
			for _, fusion := range []kernels.Fusion{kernels.FusionAuto, kernels.FusionOff} {
				ref, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: workers, Fusion: fusion})
				if err != nil {
					t.Fatal(err)
				}
				for _, engine := range []string{"fresh", "warm"} {
					calls := 1
					if engine == "warm" {
						calls = 2
					}
					for _, shards := range []int{1, 2, 4, 8} {
						name := fmt.Sprintf("%s/w%d/%s/%v/s%d", fx.name, workers, engine, fusion, shards)
						t.Run(name, func(t *testing.T) {
							e := New(shards, workers)
							defer e.Close()
							for call := 1; call <= calls; call++ {
								got, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: workers, Fusion: fusion, Backend: e})
								if err != nil {
									t.Fatal(err)
								}
								mustEqualBits(t, ref, got, fmt.Sprintf("%s call %d", name, call))
							}
						})
					}
				}
			}
		}
	}
}

// TestShardBitIdenticalArbitraryValues is the stronger claim: sharding
// replays the exact single-engine accumulation order, so bit identity
// holds for arbitrary float values — no dyadic crutch — across both the
// SymProp and CSS kernels, including workers beyond the row count and
// shard counts beyond the leaf count.
func TestShardBitIdenticalArbitraryValues(t *testing.T) {
	cases := []struct {
		order, dim, nnz, rank, workers, shards int
	}{
		{3, 40, 600, 4, 4, 2},
		{3, 40, 600, 4, 7, 8},
		{4, 20, 300, 2, 3, 4},
		{5, 12, 150, 2, 5, 3},
		{3, 6, 20, 3, 16, 8}, // workers clamp to dim, shards exceed leaves
		{3, 9, 4, 2, 8, 4},   // workers clamp to nnz
	}
	for _, c := range cases {
		x, u := normalTensor(t, c.order, c.dim, c.nnz, c.rank, 13)
		for _, compact := range []bool{true, false} {
			name := fmt.Sprintf("o%dd%dn%dr%d/w%d/s%d/compact=%v", c.order, c.dim, c.nnz, c.rank, c.workers, c.shards, compact)
			t.Run(name, func(t *testing.T) {
				kernel := kernels.S3TTMcCSS
				if compact {
					kernel = kernels.S3TTMcSymProp
				}
				ref, err := kernel(x, u, kernels.Options{Workers: c.workers})
				if err != nil {
					t.Fatal(err)
				}
				e := New(c.shards, c.workers)
				defer e.Close()
				got, err := kernel(x, u, kernels.Options{Workers: c.workers, Backend: e})
				if err != nil {
					t.Fatal(err)
				}
				mustEqualBits(t, ref, got, name)
			})
		}
	}
}

// TestShardEmptyTensor covers the nnz == 0 early return: a zero matrix of
// the single-engine shape.
func TestShardEmptyTensor(t *testing.T) {
	x := &spsym.Tensor{Order: 3, Dim: 5}
	u := linalg.NewMatrix(5, 2)
	e := New(4, 3)
	defer e.Close()
	ref, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 3, Backend: e})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualBits(t, ref, got, "empty tensor")
}

// TestWireRoundTrip: partials survive encode/decode exactly, and the
// decoder rejects corruption, truncation, version skew, and kind mixups.
func TestWireRoundTrip(t *testing.T) {
	p := &kernels.Partial{
		Shard: 1, LeafLo: 2, LeafHi: 4, RowLo: 10, RowHi: 13, Cols: 2,
		Direct: []float64{1.5, -2.25, math.Pi, 0, math.SmallestNonzeroFloat64, math.MaxFloat64},
		Spills: []kernels.LeafSpill{
			{Leaf: 2, Rows: []int32{0, 7}, Data: []float64{1, 2, 3, 4}},
			{Leaf: 3, Rows: []int32{5}, Data: []float64{-0.5, 42}},
		},
	}
	frame, err := EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePartial(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != p.Shard || got.LeafLo != p.LeafLo || got.LeafHi != p.LeafHi ||
		got.RowLo != p.RowLo || got.RowHi != p.RowHi || got.Cols != p.Cols {
		t.Fatalf("header mismatch: %+v vs %+v", got, p)
	}
	for i, v := range p.Direct {
		if math.Float64bits(got.Direct[i]) != math.Float64bits(v) {
			t.Fatalf("direct[%d] %v != %v", i, got.Direct[i], v)
		}
	}
	if len(got.Spills) != 2 || got.Spills[1].Leaf != 3 || got.Spills[1].Rows[0] != 5 ||
		math.Float64bits(got.Spills[1].Data[1]) != math.Float64bits(42) {
		t.Fatalf("spills mismatch: %+v", got.Spills)
	}

	t.Run("corruption", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)/2] ^= 0x40
		if _, err := DecodePartial(bad); err == nil {
			t.Fatal("decoder accepted a corrupted frame")
		}
	})
	t.Run("truncation", func(t *testing.T) {
		if _, err := DecodePartial(frame[:len(frame)-5]); err == nil {
			t.Fatal("decoder accepted a truncated frame")
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[4] = 99 // version field
		if _, err := DecodePartial(bad); err == nil {
			t.Fatal("decoder accepted an unknown wire version")
		}
	})
	t.Run("kind", func(t *testing.T) {
		if _, err := decodeGramBand(frame); err == nil {
			t.Fatal("gram decoder accepted a Y-partial frame")
		}
	})

	t.Run("gram", func(t *testing.T) {
		b := gramBand{shard: 2, rowLo: 3, rowHi: 5, cols: 3, data: []float64{1, 2, 3, 4, 5, 6}}
		frame, err := encodeGramBand(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeGramBand(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.shard != 2 || got.rowLo != 3 || got.rowHi != 5 || got.cols != 3 || got.data[5] != 6 {
			t.Fatalf("gram band mismatch: %+v", got)
		}
	})
}

// TestShardFaultSites: the shard.encode site fires once per shard and can
// abort the call; an in-flight corruption is caught by the CRC; the
// shard.merge site can abort the merge.
func TestShardFaultSites(t *testing.T) {
	x, u := dyadicTensor(t, 3, 24, 200, 2, 3)
	run := func() (*linalg.Matrix, error) {
		e := New(4, 4)
		defer e.Close()
		return kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 4, Backend: e})
	}

	t.Run("encode-count", func(t *testing.T) {
		hook, fires := faultinject.Counter()
		defer faultinject.Arm(faultinject.SiteShardEncode, hook)()
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		if fires() != 4 {
			t.Fatalf("shard.encode fired %d times, want 4", fires())
		}
	})
	t.Run("encode-error", func(t *testing.T) {
		boom := errors.New("encode transport down")
		defer faultinject.Arm(faultinject.SiteShardEncode, func(any) error { return boom })()
		if _, err := run(); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})
	t.Run("encode-corruption-caught", func(t *testing.T) {
		defer faultinject.Arm(faultinject.SiteShardEncode, func(payload any) error {
			frame := payload.([]byte)
			frame[len(frame)/3] ^= 0x10
			return nil
		})()
		_, err := run()
		if err == nil {
			t.Fatal("corrupted frame was not rejected")
		}
	})
	t.Run("merge-error", func(t *testing.T) {
		boom := errors.New("merge quorum lost")
		defer faultinject.Arm(faultinject.SiteShardMerge, func(payload any) error {
			if payload.(int) != 4 {
				t.Errorf("merge payload = %v, want 4", payload)
			}
			return boom
		})()
		if _, err := run(); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})
}

// TestShardGramProducts: the banded wire-round-tripped products equal the
// single-engine linalg calls bit for bit.
func TestShardGramProducts(t *testing.T) {
	a := linalg.NewMatrix(37, 11)
	b := linalg.NewMatrix(37, 5)
	for i := range a.Data {
		a.Data[i] = math.Cos(float64(i) * 0.31)
	}
	for i := range b.Data {
		b.Data[i] = math.Sin(float64(i)*0.17) - 0.2
	}
	for _, shards := range []int{1, 2, 3, 8, 16} {
		e := New(shards, 4)
		got, err := e.MulTN(a, b, kernels.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, linalg.MulTN(a, b), got, fmt.Sprintf("MulTN s=%d", shards))

		c := linalg.NewMatrix(23, 11)
		for i := range c.Data {
			c.Data[i] = math.Sin(float64(i) * 0.13)
		}
		w := make([]float64, 11)
		for i := range w {
			w[i] = float64(i%3) + 0.25
		}
		gotW, err := e.MulNTWeighted(a, c, w, kernels.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, linalg.MulNTWeighted(a, c, w), gotW, fmt.Sprintf("MulNTWeighted s=%d", shards))
		e.Close()
	}
}

// TestShardMetrics: per-shard plan names land in the collector and the
// obs helpers attribute busy time / imbalance per shard.
func TestShardMetrics(t *testing.T) {
	x, u := dyadicTensor(t, 3, 48, 900, 3, 5)
	m := obs.New()
	e := New(2, 4)
	defer e.Close()
	if _, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: 4, Backend: e, Obs: m}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	names := map[string]bool{}
	for _, pm := range snap {
		names[pm.Name] = true
	}
	for _, want := range []string{"shard.fanout", "shard.merge", "s3ttmc.shard[0]", "s3ttmc.shard[1]"} {
		if !names[want] {
			t.Fatalf("plan %q missing from snapshot (have %v)", want, names)
		}
	}
	busy := obs.ShardBusy(snap, "s3ttmc")
	if len(busy) != 2 {
		t.Fatalf("ShardBusy returned %d shards, want 2", len(busy))
	}
	if busy[0] <= 0 || busy[1] <= 0 {
		t.Fatalf("per-shard busy not recorded: %v", busy)
	}
	if imb := obs.ShardImbalance(busy); imb < 1 {
		t.Fatalf("cross-shard imbalance %v, want >= 1", imb)
	}
}

// FuzzShardEquivalence is the fuzz oracle of ISSUE 9: shards=4 and
// shards=1 must agree bit for bit with each other and with the
// single-engine kernel on arbitrary random tensors.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(int64(1), 3, 5, 3, 9, 4)
	f.Add(int64(7), 4, 4, 2, 6, 3)
	f.Add(int64(42), 5, 6, 2, 12, 5)
	f.Fuzz(func(t *testing.T, seed int64, order, dim, rank, nnz, workers int) {
		order = 2 + abs(order)%4
		dim = 1 + abs(dim)%8
		rank = 1 + abs(rank)%4
		nnz = 1 + abs(nnz)%16
		workers = 1 + abs(workers)%7
		x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: seed, Values: spsym.ValueNormal})
		if err != nil {
			t.Skip()
		}
		u := linalg.NewMatrix(dim, rank)
		for i := range u.Data {
			u.Data[i] = math.Sin(float64(seed) + float64(i)*0.9)
		}
		opts := kernels.Options{Workers: workers}
		ref, err := kernels.S3TTMcSymProp(x, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			e := New(shards, workers)
			got, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Workers: workers, Backend: e})
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, ref, got, fmt.Sprintf("shards=%d", shards))
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
