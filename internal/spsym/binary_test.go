package spsym

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	ts, err := Random(RandomOptions{Order: 5, Dim: 50, NNZ: 200, Seed: 31, Values: ValueNormal})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ts.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order != ts.Order || got.Dim != ts.Dim || got.NNZ() != ts.NNZ() {
		t.Fatal("shape mismatch after binary round trip")
	}
	for i := range ts.Index {
		if ts.Index[i] != got.Index[i] {
			t.Fatal("indices differ")
		}
	}
	for i := range ts.Values {
		if ts.Values[i] != got.Values[i] {
			t.Fatal("values differ (must be bit-exact)")
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short magic": []byte("SYM"),
		"bad magic":   []byte("NOTMAGIC0123456789012345"),
		"truncated": func() []byte {
			ts, _ := Random(RandomOptions{Order: 3, Dim: 5, NNZ: 5, Seed: 1})
			var buf bytes.Buffer
			_ = ts.WriteBinary(&buf)
			return buf.Bytes()[:buf.Len()-10]
		}(),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBinaryRejectsCorruptPayload(t *testing.T) {
	ts, _ := Random(RandomOptions{Order: 3, Dim: 5, NNZ: 5, Seed: 2})
	var buf bytes.Buffer
	if err := ts.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt an index to be out of range.
	data[8+16] = 0xFF
	data[8+16+1] = 0xFF
	data[8+16+2] = 0xFF
	data[8+16+3] = 0x7F
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("corrupt index must fail validation")
	}
}

func TestLoadBothFormats(t *testing.T) {
	dir := t.TempDir()
	ts, _ := Random(RandomOptions{Order: 3, Dim: 8, NNZ: 12, Seed: 3})

	binPath := filepath.Join(dir, "x.stnb")
	if err := ts.SaveBinary(binPath); err != nil {
		t.Fatal(err)
	}
	txtPath := filepath.Join(dir, "x.tns")
	if err := ts.Save(txtPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{binPath, txtPath} {
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.NNZ() != ts.NNZ() {
			t.Fatalf("%s: nnz %d, want %d", path, got.NNZ(), ts.NNZ())
		}
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file must fail")
	}
	var text bytes.Buffer
	if err := ts.Write(&text); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&text); err == nil {
		t.Error("text through ReadBinary must fail")
	}
}

func TestLoadTinyTextFile(t *testing.T) {
	// A text file shorter than the 8-byte magic must still parse (or fail
	// as text), not crash the sniffer.
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.tns")
	if err := writeFile(path, "sym 2 2 0\n"); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Error("expected empty tensor")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestDegrees(t *testing.T) {
	ts := New(3, 5)
	ts.Append([]int{0, 1, 2}, 1)
	ts.Append([]int{1, 1, 3}, 1)
	ts.Append([]int{4, 4, 4}, 1)
	ts.Canonicalize()
	deg := ts.Degrees()
	want := []int64{1, 2, 1, 1, 1}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("Degrees = %v, want %v", deg, want)
		}
	}
}

// Regression (found by FuzzReadBinary): a header declaring a huge nnz with
// no body must fail on the short read, not attempt a terabyte allocation.
func TestBinaryHeaderBombRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("SYMTNSR1"))
	hdr := make([]byte, 16)
	hdr[0] = 3               // order 3
	hdr[4] = 10              // dim 10
	hdr[8], hdr[9] = 0, 0    //
	hdr[10], hdr[11] = 0, 64 // nnz = 64<<16 ... build a big value below
	buf.Write(hdr)
	// Rewrite nnz as 2^35 directly.
	b := buf.Bytes()
	b[8+8] = 0
	b[8+9] = 0
	b[8+10] = 0
	b[8+11] = 0
	b[8+12] = 8 // 8 << 32 = 2^35
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Error("allocation-bomb header must fail")
	}
}
