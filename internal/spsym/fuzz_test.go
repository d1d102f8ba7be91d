package spsym

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// A decoder may allocate at most allocPerByte bytes per input byte plus
// allocSlack, which covers its fixed read buffers (ReadBinary's 1 MiB
// chunk, the text scanner's 64 KiB) and what the fuzzing engine allocates
// meanwhile. A count taken from a header must never size an allocation.
const (
	allocPerByte = 64
	allocSlack   = 4 << 20
)

// checkAllocBound runs decode on an input of n bytes and fails t when it
// allocated more than the bound.
func checkAllocBound(t *testing.T, n int, decode func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocPerByte*n+allocSlack); got > limit {
		t.Fatalf("decoding %d input bytes allocated %d bytes, over the bound of %d", n, got, limit)
	}
}

// FuzzReadFrom hardens the text parser: arbitrary input must either parse
// into a valid tensor or return an error — never panic, never produce a
// tensor that fails Validate, never allocate past checkAllocBound.
func FuzzReadFrom(f *testing.F) {
	f.Add("sym 2 3 2\n1 2 1.5\n3 3 -2.0\n")
	f.Add("sym 1 1 1\n1 0.5\n")
	f.Add("# comment\nsym 3 4 0\n")
	f.Add("sym 2 3 1\n2 1 1e308\n")
	f.Add("sym 16 2 1\n1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n")
	// A 32-byte input whose header declares two billion non-zeros.
	f.Add("sym 3 1000 2000000000\n1 2 3 1.5\n")
	f.Fuzz(func(t *testing.T, input string) {
		var ts *Tensor
		var err error
		checkAllocBound(t, len(input), func() { ts, err = ReadFrom(strings.NewReader(input)) })
		if err != nil {
			return
		}
		if verr := ts.Validate(); verr != nil {
			t.Fatalf("parsed tensor fails validation: %v\ninput: %q", verr, input)
		}
	})
}

// FuzzReadBinary hardens the binary parser the same way, allocation bound
// included.
func FuzzReadBinary(f *testing.F) {
	ts, _ := Random(RandomOptions{Order: 3, Dim: 5, NNZ: 5, Seed: 1})
	var buf bytes.Buffer
	_ = ts.WriteBinary(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("SYMTNSR1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Tensor
		var err error
		checkAllocBound(t, len(data), func() { got, err = ReadBinary(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("parsed binary tensor fails validation: %v", verr)
		}
	})
}
