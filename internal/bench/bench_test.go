package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/symprop/symprop/internal/dense"
)

func TestComplexityModelBasics(t *testing.T) {
	// c_sp(l) <= c_css(l) always, equality only at rank 1.
	for order := 3; order <= 10; order++ {
		for rank := 1; rank <= 12; rank++ {
			for l := 2; l <= order-1; l++ {
				sp, css := CSPLevel(l, order, rank), CCSSLevel(l, order, rank)
				if sp > css {
					t.Fatalf("c_sp > c_css at l=%d N=%d R=%d", l, order, rank)
				}
				if rank == 1 && sp != css {
					t.Fatalf("rank 1 should be equal at l=%d N=%d", l, order)
				}
			}
		}
	}
	// Paper example: c_css(l)/c_sp(l) = R^l/S_{l,R} -> l! as R grows.
	ratio := ReductionRatio(4, 1000)
	if ratio < 20 || ratio > 24 {
		t.Errorf("reduction ratio at l=4, large R = %v, want ~4! = 24", ratio)
	}
	// R=2 case: 2^l/(l+1).
	if got, want := ReductionRatio(3, 2), 8.0/float64(dense.Count(3, 2)); got != want {
		t.Errorf("R=2 ratio = %v, want %v", got, want)
	}
}

func TestTotalsScaleLinearlyInNNZ(t *testing.T) {
	a := CSPTotal(6, 4, 100)
	b := CSPTotal(6, 4, 200)
	if b != 2*a {
		t.Errorf("CSPTotal not linear in unnz: %d vs %d", a, b)
	}
	if CCSSTotal(6, 4, 100) <= a {
		t.Error("CSS total should exceed SP total")
	}
}

func TestSaturation(t *testing.T) {
	if satAdd(1<<62, 1<<62) < 0 {
		t.Error("satAdd overflowed")
	}
	if satMul(1<<40, 1<<40) < 0 {
		t.Error("satMul overflowed")
	}
	if HOQRINaryCost(16, 20, 1<<40) < 0 {
		t.Error("HOQRINaryCost overflowed")
	}
	if SVDCost(16, 20, 1<<40) < 0 {
		t.Error("SVDCost overflowed")
	}
}

func TestParseProfile(t *testing.T) {
	for _, s := range []string{"", "quick", "paper", "test"} {
		if _, err := ParseProfile(s); err != nil {
			t.Errorf("ParseProfile(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseProfile("huge"); err == nil {
		t.Error("unknown profile must fail")
	}
}

func TestProfilesConsistent(t *testing.T) {
	for _, p := range []Profile{ProfileQuick, ProfilePaper, ProfileTest} {
		specs := p.Datasets()
		if len(specs) != 9 {
			t.Fatalf("%s profile has %d datasets, want 9", p, len(specs))
		}
		for _, d := range specs {
			if d.Order < 2 || d.Rank < 1 || d.Dim < d.Order {
				t.Errorf("%s/%s: implausible spec %+v", p, d.Name, d)
			}
		}
		o, dim, nnz, r := p.SweepBase()
		if o < 2 || dim < 2 || nnz < 1 || r < 1 {
			t.Errorf("%s sweep base broken", p)
		}
		if p.Reps() < 1 || p.TuckerIters() < 1 || p.ConvergenceIters() < 1 {
			t.Errorf("%s iteration knobs broken", p)
		}
	}
	// Quick datasets must be no larger than paper datasets.
	paper := ProfilePaper.Datasets()
	for i, q := range ProfileQuick.Datasets() {
		if q.Dim > paper[i].Dim || q.UNNZ > paper[i].UNNZ {
			t.Errorf("quick %s larger than paper scale", q.Name)
		}
		if q.Order != paper[i].Order || q.Rank != paper[i].Rank {
			t.Errorf("quick %s changed order/rank", q.Name)
		}
	}
}

func TestStatusAndMeasurementFormat(t *testing.T) {
	cases := map[Status]string{StatusOK: "ok", StatusOOM: "OOM", StatusSkipSlow: "skip(slow)", StatusError: "error"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", s, s, want)
		}
	}
	m := Measurement{Status: StatusOK, Seconds: 1.5}
	if m.Format() != "1.5s" {
		t.Errorf("Format = %q", m.Format())
	}
	if (Measurement{Status: StatusOOM}).Format() != "OOM" {
		t.Error("OOM format wrong")
	}
}

func TestSpeedupFormatting(t *testing.T) {
	ok := Measurement{Status: StatusOK, Seconds: 2}
	fast := Measurement{Status: StatusOK, Seconds: 1}
	if got := speedup(ok, fast); got != "2.0x" {
		t.Errorf("speedup = %q", got)
	}
	oom := Measurement{Status: StatusOOM}
	if speedup(oom, fast) != "-" || speedup(ok, oom) != "-" {
		t.Error("non-OK speedups must be '-'")
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	table(&buf, []string{"a", "bbb"}, [][]string{{"xx", "y"}})
	out := buf.String()
	if !strings.Contains(out, "a   bbb") || !strings.Contains(out, "---") {
		t.Errorf("table output malformed:\n%s", out)
	}
}

func TestWriteTable2(t *testing.T) {
	var buf bytes.Buffer
	WriteTable2(&buf, 7, 4, 400, 10000)
	out := buf.String()
	for _, want := range []string{"HOOI-CSS", "HOOI-SymProp", "HOQRI [14]", "HOQRI-SymProp", "l! ="} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

// Smoke tests: every experiment runner completes on the micro profile.
func TestExperimentsSmoke(t *testing.T) {
	p := ProfileTest
	var buf bytes.Buffer
	if err := Table3(&buf, p); err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if err := Table2(&buf, p); err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if err := Fig4(&buf, p); err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	for _, s := range []Sweep{SweepRank, SweepOrder, SweepNNZ, SweepDim} {
		if err := Fig5(&buf, p, s); err != nil {
			t.Fatalf("Fig5(%s): %v", s, err)
		}
	}
	if err := Fig5(&buf, p, Sweep("bogus")); err == nil {
		t.Error("bogus sweep must fail")
	}
	if err := Fig6(&buf, p); err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if err := Fig7(&buf, p); err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if err := Fig8(&buf, p); err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if err := Fig9(&buf, p); err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if err := IdxIter(&buf, p); err != nil {
		t.Fatalf("IdxIter: %v", err)
	}
	if err := Ablate(&buf, p); err != nil {
		t.Fatalf("Ablate: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Table III", "geometric mean", "Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4", "Ablation 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("combined output missing %q", want)
		}
	}
}

func TestVerifyGate(t *testing.T) {
	var buf bytes.Buffer
	if err := Verify(&buf, 8, 7); err != nil {
		t.Fatalf("verification gate failed: %v", err)
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Error("verify output missing PASS")
	}
	// trials < 1 defaults sanely.
	buf.Reset()
	if err := Verify(&buf, 0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSVGEmission(t *testing.T) {
	dir := t.TempDir()
	SetSVGDir(dir)
	defer SetSVGDir("")
	var buf bytes.Buffer
	if err := Fig5(&buf, ProfileTest, SweepRank); err != nil {
		t.Fatal(err)
	}
	if err := Fig9(&buf, ProfileTest); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 3 { // fig5-rank + two fig9 traces
		t.Errorf("expected >=3 SVG files, got %v", matches)
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil || len(data) == 0 {
			t.Errorf("empty or unreadable SVG %s: %v", m, err)
		}
	}
	if !strings.Contains(buf.String(), "svg figure written") {
		t.Error("report should mention written figures")
	}
}

func TestCSVEmission(t *testing.T) {
	dir := t.TempDir()
	SetCSVDir(dir)
	defer SetCSVDir("")
	var buf bytes.Buffer
	if err := Table3(&buf, ProfileTest); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table3.csv"))
	if err != nil {
		t.Fatalf("table3.csv not written: %v", err)
	}
	if !strings.Contains(string(data), "dataset,kind,order") {
		t.Errorf("CSV header missing: %q", string(data)[:60])
	}
	lines := strings.Count(string(data), "\n")
	if lines != 10 { // header + 9 datasets
		t.Errorf("CSV has %d lines, want 10", lines)
	}
}
