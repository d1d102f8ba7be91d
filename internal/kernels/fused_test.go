package kernels

import (
	"fmt"
	"math"
	"testing"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
)

// fusedGrid is the specialized (order, rank) grid of fused_gen.go;
// TestFusedGridPinned checks that it matches the generated dispatch.
var fusedGrid = []struct{ order, r int }{
	{3, 2}, {3, 4}, {3, 8},
	{4, 2}, {4, 4},
	{5, 2}, {5, 4},
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
// must fall back — the default dispatch and the interpreter alone
// (noFusion) produce bit-identical compact output for every worker count.
// The random tensors include non-zeros with repeated indices, so the fused
// path's per-nonzero fallback to the generic evaluator is exercised inside
// the same sweep.
func TestFusedMatchesGenericBitwise(t *testing.T) {
	shapes := append([]struct{ order, r int }{}, fusedGrid...)
	// Off-grid: a rank miss, an order miss, and the two rank-8 cells the
	// interpreter beats.
	shapes = append(shapes, struct{ order, r int }{3, 3}, struct{ order, r int }{6, 2},
		struct{ order, r int }{4, 8}, struct{ order, r int }{5, 8})
	for _, sh := range shapes {
		dim := sh.order + 3
		x, u := randomCase(t, sh.order, dim, 40, sh.r, int64(sh.order*1000+sh.r))
		for _, workers := range []int{1, 3} {
			generic, err := S3TTMcSymProp(x, u, Options{Workers: workers, noFusion: true})
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

// TestFusedGridPinned checks that fusedGrid is exactly the generated
// dispatch: fusedEvalFor returns an evaluator on every listed cell and nil
// everywhere else in orders 2–9 × ranks 1–16, so a change to the
// generator's cell list fails here until the test's copy follows.
func TestFusedGridPinned(t *testing.T) {
	onGrid := make(map[[2]int]bool, len(fusedGrid))
	for _, sh := range fusedGrid {
		onGrid[[2]int{sh.order, sh.r}] = true
	}
	for order := 2; order <= 9; order++ {
		for r := 1; r <= 16; r++ {
			if got, want := fusedEvalFor(order, r) != nil, onGrid[[2]int{order, r}]; got != want {
				t.Errorf("order %d r %d: fused evaluator %v, want %v", order, r, got, want)
			}
		}
	}
}

// TestResolveFusionGating enumerates the dispatch rules: the fused path is
// reachable only on the compact generated path, and only for the
// specialized (order, rank) pairs. Every miss names its fusion.miss
// reason.
func TestResolveFusionGating(t *testing.T) {
	for _, sh := range fusedGrid {
		if f, reason := resolveFusion(Options{}, true, sh.order, sh.r); f == nil || reason != "" {
			t.Errorf("order %d r %d: evaluator %v reason %q, want an evaluator and no reason", sh.order, sh.r, f != nil, reason)
		}
	}
	base := Options{}
	deny := []struct {
		name    string
		opts    Options
		compact bool
		order   int
		r       int
		reason  string
	}{
		{"interpreter only", Options{noFusion: true}, true, 3, 4, "fusion-off"},
		{"full storage (CSS)", base, false, 3, 4, "full-storage"},
		{"lex walk", Options{lexWalk: true}, true, 3, 4, "fusion-off"},
		{"rank miss", base, true, 3, 3, "off-grid"},
		{"rank miss wide", base, true, 4, 16, "off-grid"},
		{"order miss low", base, true, 2, 4, "off-grid"},
		{"order miss high", base, true, 6, 4, "off-grid"},
		{"interpreter wins (4, 8)", base, true, 4, 8, "off-grid"},
		{"interpreter wins (5, 8)", base, true, 5, 8, "off-grid"},
	}
	for _, d := range deny {
		if f, reason := resolveFusion(d.opts, d.compact, d.order, d.r); f != nil || reason != d.reason {
			t.Errorf("%s: evaluator %v reason %q, want nil and %q", d.name, f != nil, reason, d.reason)
		}
	}
}

// TestRecordFusionMiss checks that the fusion.miss counters follow the
// dispatch rule: a call on the fused path counts nothing, and each miss
// counts once under its (order, rank, reason).
func TestRecordFusionMiss(t *testing.T) {
	prev := obs.GlobalCounters()
	defer obs.SetGlobalCounters(prev)
	c := obs.NewCounters()
	obs.SetGlobalCounters(c)

	recordFusionMiss(Options{}, true, 3, 4)
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("fused call recorded %v, want nothing", names)
	}
	recordFusionMiss(Options{}, true, 5, 8)
	recordFusionMiss(Options{}, false, 3, 4)
	recordFusionMiss(Options{noFusion: true}, true, 4, 4)
	recordFusionMiss(Options{noFusion: true}, true, 4, 4)
	want := map[string]int64{
		"fusion.miss[order=5 rank=8 reason=off-grid]":     1,
		"fusion.miss[order=3 rank=4 reason=full-storage]": 1,
		"fusion.miss[order=4 rank=4 reason=fusion-off]":   2,
	}
	got := c.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("counters %v, want %v", got, want)
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s = %d, want %d", name, got[name], n)
		}
	}
}
