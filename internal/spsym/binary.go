package spsym

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/symprop/symprop/internal/dense"
)

// Binary format: a compact little-endian serialization for large tensors
// where the text format's parse cost dominates loading. Layout:
//
//	magic   [8]byte  "SYMTNSR1"
//	order   uint32
//	dim     uint32
//	nnz     uint64
//	index   nnz*order * int32   (IOU tuples, lexicographically sorted)
//	values  nnz * float64
var binaryMagic = [8]byte{'S', 'Y', 'M', 'T', 'N', 'S', 'R', '1'}

// WriteBinary serializes t in the binary format. The tensor should be
// canonical; ReadBinary validates on load.
func (t *Tensor) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(t.Order))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(t.Dim))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(t.NNZ()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, v := range t.Index {
		binary.LittleEndian.PutUint32(buf, uint32(v))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for _, v := range t.Values {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format and validates the result.
func ReadBinary(r io.Reader) (*Tensor, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("spsym: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("spsym: bad magic %q", magic[:])
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("spsym: binary header: %w", err)
	}
	order := int(binary.LittleEndian.Uint32(hdr[0:]))
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	nnz := binary.LittleEndian.Uint64(hdr[8:])
	if order < 1 || order > dense.MaxOrder || dim < 1 || nnz > (1<<40) {
		return nil, fmt.Errorf("spsym: implausible binary header order=%d dim=%d nnz=%d", order, dim, nnz)
	}
	// Never trust the header for a large up-front allocation (a crafted
	// header could demand terabytes): read in bounded chunks and grow with
	// the data that actually arrives, so truncated or hostile inputs fail
	// on a short read instead of an allocation bomb.
	t := New(order, dim)
	totalIdx := int(nnz) * order
	const chunkBytes = 1 << 20
	chunk := make([]byte, chunkBytes)
	for read := 0; read < totalIdx; {
		n := totalIdx - read
		if n > chunkBytes/4 {
			n = chunkBytes / 4
		}
		if _, err := io.ReadFull(br, chunk[:n*4]); err != nil {
			return nil, fmt.Errorf("spsym: binary index: %w", err)
		}
		for i := 0; i < n; i++ {
			t.Index = append(t.Index, int32(binary.LittleEndian.Uint32(chunk[i*4:])))
		}
		read += n
	}
	for read := 0; read < int(nnz); {
		n := int(nnz) - read
		if n > chunkBytes/8 {
			n = chunkBytes / 8
		}
		if _, err := io.ReadFull(br, chunk[:n*8]); err != nil {
			return nil, fmt.Errorf("spsym: binary values: %w", err)
		}
		for i := 0; i < n; i++ {
			t.Values = append(t.Values, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i*8:])))
		}
		read += n
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("spsym: binary payload invalid: %w", err)
	}
	return t, nil
}

// SaveBinary writes t to the named file in the binary format.
func (t *Tensor) SaveBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAuto reads either format, sniffing the binary format's magic bytes.
func ReadAuto(r io.Reader) (*Tensor, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err == nil && len(head) == 8 && [8]byte(head[:8]) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadFrom(br)
}

// Degrees returns the number of IOU non-zeros touching each index value —
// the node degrees when the tensor is a hypergraph adjacency tensor.
func (t *Tensor) Degrees() []int64 {
	deg := make([]int64, t.Dim)
	for k := 0; k < t.NNZ(); k++ {
		tuple := t.IndexAt(k)
		for i, v := range tuple {
			if i > 0 && v == tuple[i-1] {
				continue // count each non-zero once per distinct node
			}
			deg[v]++
		}
	}
	return deg
}
