package linalg

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestWriteFactorRoundTrip pins the factor-file bytes and checks that
// every entry parses back to the same bits.
func TestWriteFactorRoundTrip(t *testing.T) {
	u := NewMatrixFrom(2, 3, []float64{0.1, -2, 1.0 / 3, 1e-300, math.Nextafter(1, 2), 12345.678})
	var buf bytes.Buffer
	if err := WriteFactor(&buf, u); err != nil {
		t.Fatal(err)
	}
	want := "% symprop factor matrix 2 x 3\n" +
		"0.1 -2 0.3333333333333333\n" +
		"1e-300 1.0000000000000002 12345.678\n"
	if buf.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", buf.String(), want)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:]
	for i, line := range lines {
		for k, field := range strings.Fields(line) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(v) != math.Float64bits(u.At(i, k)) {
				t.Errorf("entry (%d, %d) reads back as %v, wrote %v", i, k, v, u.At(i, k))
			}
		}
	}
}
