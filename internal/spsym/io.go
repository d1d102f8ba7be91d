package spsym

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/symprop/symprop/internal/dense"
)

// The text format is a symmetric variant of the FROSTT .tns convention:
//
//	# optional comment lines
//	sym <order> <dim> <nnz>
//	i1 i2 ... iN value        (1-based indices, one IOU non-zero per line)
//
// Indices are written 1-based for compatibility with FROSTT tooling and
// converted to 0-based in memory. Tuples need not arrive sorted or unique;
// ReadFrom canonicalizes.

// Write serializes t in the symmetric text format.
func (t *Tensor) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "sym %d %d %d\n", t.Order, t.Dim, t.NNZ()); err != nil {
		return err
	}
	for k := 0; k < t.NNZ(); k++ {
		tuple := t.IndexAt(k)
		for _, j := range tuple {
			if _, err := fmt.Fprintf(bw, "%d ", j+1); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%.17g\n", t.Values[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFrom parses a tensor in the symmetric text format.
func ReadFrom(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	var t *Tensor
	declared := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if t == nil {
			if len(fields) != 4 || fields[0] != "sym" {
				return nil, fmt.Errorf("spsym: line %d: want header \"sym <order> <dim> <nnz>\", got %q", line, text)
			}
			order, err1 := strconv.Atoi(fields[1])
			dim, err2 := strconv.Atoi(fields[2])
			nnz, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil ||
				order < 1 || order > dense.MaxOrder || dim < 1 || nnz < 0 {
				return nil, fmt.Errorf("spsym: line %d: malformed header %q (order must be in [1,%d])", line, text, dense.MaxOrder)
			}
			// The slices grow with the entries that arrive: sizing them from
			// the declared count would let a short input demand any
			// allocation, one the runtime cannot refuse with an error.
			t = New(order, dim)
			declared = nnz
			continue
		}
		if len(fields) != t.Order+1 {
			return nil, fmt.Errorf("spsym: line %d: want %d fields, got %d", line, t.Order+1, len(fields))
		}
		idx := make([]int, t.Order)
		for i := 0; i < t.Order; i++ {
			v, err := strconv.Atoi(fields[i])
			if err != nil {
				return nil, fmt.Errorf("spsym: line %d: bad index %q: %v", line, fields[i], err)
			}
			if v < 1 || v > t.Dim {
				return nil, fmt.Errorf("spsym: line %d: index %d out of range [1,%d]", line, v, t.Dim)
			}
			idx[i] = v - 1
		}
		val, err := strconv.ParseFloat(fields[t.Order], 64)
		if err != nil {
			return nil, fmt.Errorf("spsym: line %d: bad value %q: %v", line, fields[t.Order], err)
		}
		t.Append(idx, val)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spsym: read: %w", err)
	}
	if t == nil {
		return nil, fmt.Errorf("spsym: empty input, missing header")
	}
	if declared >= 0 && t.NNZ() != declared {
		return nil, fmt.Errorf("spsym: header declares %d non-zeros, file has %d", declared, t.NNZ())
	}
	t.Canonicalize()
	return t, nil
}

// Load reads a tensor from the named file in either format, the text
// format of Save or the binary format of SaveBinary (ReadAuto).
func Load(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}

// Save writes t to the named file.
func (t *Tensor) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
