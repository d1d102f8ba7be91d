package kernels

import (
	"fmt"
	"math"
	"testing"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/linalg"
)

// fusedGrid is the specialized (order, rank) grid of fused_gen.go.
var fusedGrid = []struct{ order, r int }{
	{3, 2}, {3, 4}, {3, 8},
	{4, 2}, {4, 4}, {4, 8},
	{5, 2}, {5, 4}, {5, 8},
}

// requireBitEqual fails when a and b differ in any bit (NaNs with equal
// payloads compare equal).
func requireBitEqual(t *testing.T, label string, a, b *linalg.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("%s: row %d col %d: %v (%#x) vs %v (%#x)",
					label, i, j, ra[j], math.Float64bits(ra[j]), rb[j], math.Float64bits(rb[j]))
			}
		}
	}
}

// TestFusedMatchesGenericBitwise is the differential gate of the fused
// kernels: across the full specialized grid — and off-grid shapes that
// must fall back — FusionAuto and FusionOff produce bit-identical compact
// output for every worker count. The random tensors
// include non-zeros with repeated indices, so the fused path's per-nonzero
// fallback to the generic evaluator is exercised inside the same sweep.
func TestFusedMatchesGenericBitwise(t *testing.T) {
	shapes := append([]struct{ order, r int }{}, fusedGrid...)
	shapes = append(shapes, struct{ order, r int }{3, 3}, struct{ order, r int }{6, 2}) // off-grid: rank and order misses
	for _, sh := range shapes {
		dim := sh.order + 3
		x, u := randomCase(t, sh.order, dim, 40, sh.r, int64(sh.order*1000+sh.r))
		for _, workers := range []int{1, 3} {
			generic, err := S3TTMcSymProp(x, u, Options{Workers: workers, Fusion: FusionOff})
			if err != nil {
				t.Fatal(err)
			}
			fused, err := S3TTMcSymProp(x, u, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("order=%d r=%d workers=%d", sh.order, sh.r, workers)
			requireBitEqual(t, label, generic, fused)
		}
	}
}

// TestFusedMatchesReference pins the fused kernels to the brute-force
// oracle directly (not just to the generic path) on a few grid cells.
func TestFusedMatchesReference(t *testing.T) {
	for _, sh := range []struct{ order, r int }{{3, 4}, {4, 2}, {5, 2}} {
		dim := sh.order + 3
		x, u := randomCase(t, sh.order, dim, 25, sh.r, int64(sh.order*77+sh.r))
		yp, err := S3TTMcSymProp(x, u, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := ExpandCompactColumns(yp, x.Order, sh.r)
		want := referenceTTMc(x, u)
		for i := 0; i < got.Rows; i++ {
			gr, wr := got.Row(i), want.Row(i)
			for j := range gr {
				if diff := math.Abs(gr[j] - wr[j]); diff > 1e-9*(1+math.Abs(wr[j])) {
					t.Fatalf("order %d r %d: row %d col %d: got %v want %v", sh.order, sh.r, i, j, gr[j], wr[j])
				}
			}
		}
	}
}

// TestResolveFusionGating enumerates the dispatch rules: the fused path is
// reachable only on the compact generated path with fusion enabled, and
// only for specialized (order, rank) pairs.
func TestResolveFusionGating(t *testing.T) {
	for _, sh := range fusedGrid {
		if resolveFusion(Options{}, true, sh.order, sh.r) == nil {
			t.Errorf("order %d r %d: expected fused evaluator, got nil", sh.order, sh.r)
		}
	}
	base := Options{}
	deny := []struct {
		name    string
		opts    Options
		compact bool
		order   int
		r       int
	}{
		{"fusion off", Options{Fusion: FusionOff}, true, 3, 4},
		{"full storage (CSS)", base, false, 3, 4},
		{"recursive iteration", Options{Iteration: IterRecursive}, true, 3, 4},
		{"index-mapped iteration", Options{Iteration: IterIndexMapped}, true, 3, 4},
		{"rank miss", base, true, 3, 3},
		{"rank miss wide", base, true, 4, 16},
		{"order miss low", base, true, 2, 4},
		{"order miss high", base, true, 6, 4},
	}
	for _, d := range deny {
		if resolveFusion(d.opts, d.compact, d.order, d.r) != nil {
			t.Errorf("%s: expected nil evaluator", d.name)
		}
	}
}

// TestFusedPermCountsBaked verifies the baked multinomial tables are
// bit-equal to the computed vectors on the grid and absent off it.
func TestFusedPermCountsBaked(t *testing.T) {
	for _, sh := range fusedGrid {
		sym := sh.order - 1
		baked := fusedPermCounts(sym, sh.r)
		if baked == nil {
			t.Fatalf("symOrder %d r %d: no baked table", sym, sh.r)
		}
		want := dense.PermCounts(sym, sh.r)
		if len(baked) != len(want) {
			t.Fatalf("symOrder %d r %d: len %d want %d", sym, sh.r, len(baked), len(want))
		}
		for i := range baked {
			if math.Float64bits(baked[i]) != math.Float64bits(want[i]) {
				t.Fatalf("symOrder %d r %d: entry %d: baked %v computed %v", sym, sh.r, i, baked[i], want[i])
			}
		}
	}
	for _, off := range []struct{ sym, r int }{{2, 3}, {5, 2}, {1, 4}} {
		if fusedPermCounts(off.sym, off.r) != nil {
			t.Errorf("symOrder %d r %d: unexpected baked table", off.sym, off.r)
		}
	}
}
