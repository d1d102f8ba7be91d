package kernels

import (
	"math/rand"
	"testing"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/spsym"
)

// S3MTTKRP must match brute force over the expanded non-zeros.
func TestMTTKRPAgainstExpansion(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x, err := spsym.Random(spsym.RandomOptions{Order: 4, Dim: 6, NNZ: 12, Seed: seed, Values: spsym.ValueNormal})
		if err != nil {
			t.Fatal(err)
		}
		u := linalg.RandomNormal(6, 3, rand.New(rand.NewSource(seed+10)))
		got, err := S3MTTKRP(x, u, Options{})
		if err != nil {
			t.Fatal(err)
		}

		want := linalg.NewMatrix(6, 3)
		x.ForEachExpanded(func(idx []int32, val float64) {
			row := want.Row(int(idx[0]))
			for c := 0; c < 3; c++ {
				p := val
				for _, v := range idx[1:] {
					p *= u.At(int(v), c)
				}
				row[c] += p
			}
		})
		if d := linalg.MaxAbsDiff(got, want); d > 1e-10 {
			t.Errorf("seed %d: S3MTTKRP differs from expansion by %v", seed, d)
		}
	}
}

// Each worker count gives one result bit for bit, call after call; across
// worker counts the spill reduction reorders sums, so results agree to
// rounding only.
func TestMTTKRPWorkersAgree(t *testing.T) {
	x, err := spsym.Random(spsym.RandomOptions{Order: 3, Dim: 10, NNZ: 40, Seed: 7, Values: spsym.ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	u := linalg.RandomNormal(10, 4, rand.New(rand.NewSource(8)))
	var ref *linalg.Matrix
	for workers := 1; workers <= 4; workers++ {
		first, err := S3MTTKRP(x, u, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 5; call++ {
			again, err := S3MTTKRP(x, u, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if h0, h := bitsHash(first.Data), bitsHash(again.Data); h != h0 {
				t.Errorf("workers=%d call %d: hash %#016x, first call %#016x", workers, call, h, h0)
			}
		}
		if ref == nil {
			ref = first
		} else if d := linalg.MaxAbsDiff(ref, first); d > 1e-10 {
			t.Errorf("workers=%d differs from workers=1 by %v", workers, d)
		}
	}
}
