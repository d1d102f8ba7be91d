// Package checkpoint persists Tucker iteration state so long decomposition
// runs can be interrupted and resumed bit-identically. A snapshot holds the
// current factor U, the completed iteration count, the full objective and
// relative-error traces, the run's seed (all driver randomness — including
// jittered numeric-recovery restarts — is derived deterministically from
// (seed, iteration), so the seed is the complete RNG state), and a
// fingerprint of the (tensor, options) configuration that must match on
// resume.
//
// The on-disk format is deliberately boring and self-verifying:
//
//	offset  size  field
//	0       8     magic "SYMCKPT" + version byte (currently 2)
//	8       8     payload length, little-endian uint64
//	16      n     payload (fixed-width little-endian fields, see encode)
//	16+n    4     CRC-32 (IEEE) of the payload, little-endian
//
// Version 2 appends the run's observability trace (Result.Trace, one event
// per completed sweep) to the payload as a length-prefixed JSON blob, so a
// resumed run's trace continues where the interrupted one stopped. Version
// 1 snapshots (no trace) still load — the trace restores as empty.
//
// Save writes to a temp file in the target directory, syncs, closes, and
// renames — so a crash mid-write leaves either the previous snapshot or
// none, never a torn one. Load verifies magic, version, length, and CRC and
// returns ErrCheckpointCorrupt (wrapped, with detail) on any mismatch, so
// callers can distinguish "corrupt snapshot" from I/O errors.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
)

// ErrCheckpointCorrupt marks a snapshot that exists but fails structural
// validation (bad magic, truncated payload, CRC mismatch, impossible
// field values). Detect it with errors.Is.
var ErrCheckpointCorrupt = errors.New("checkpoint: corrupt or truncated snapshot")

// ErrMismatch marks a structurally valid snapshot whose fingerprint does
// not match the run it is being resumed into (different tensor, rank,
// worker count, seed, or algorithm).
var ErrMismatch = errors.New("checkpoint: snapshot does not match run configuration")

const (
	magic   = "SYMCKPT"
	version = 2
	// minVersion is the oldest snapshot version Load still accepts
	// (version 1 lacks the trailing trace blob).
	minVersion = 1
	// maxSnapshotBytes bounds Load's allocation so a corrupt length field
	// cannot become an allocation bomb (the same defense the binary tensor
	// reader grew after fuzzing).
	maxSnapshotBytes = 1 << 32
)

// State is one resumable snapshot of a Tucker driver run.
type State struct {
	// Algo is the driver name ("hooi", "hoqri", ...); resuming into a
	// different driver is refused via the fingerprint.
	Algo string
	// Fingerprint hashes the (tensor, options) configuration; see
	// tucker.Options. Resume verifies it before trusting U.
	Fingerprint uint64
	// Iteration is the number of fully completed iterations; the resumed
	// loop starts at this index.
	Iteration int
	// Seed is the run's RNG seed. All randomness after initialization is
	// derived from (Seed, iteration), so no generator state is stored.
	Seed int64
	// U is the factor matrix as of Iteration.
	U *linalg.Matrix
	// Objective and RelError are the full per-iteration traces up to and
	// including Iteration, restored verbatim so a resumed run's trace is
	// bit-identical to an uninterrupted one.
	Objective []float64
	RelError  []float64
	// Trace is the observability iteration trace (one event per completed
	// sweep, tucker Result.Trace), stored as JSON since version 2 so a
	// resumed run extends it instead of restarting it. Unlike the numeric
	// traces it carries wall-clock timings and is informational: it is not
	// covered by the bit-identity resume guarantee.
	Trace []obs.TraceEvent
}

func (s *State) encode() []byte {
	size := 8 + // fingerprint
		8 + len(s.Algo) + // algo
		8 + // iteration
		8 + // seed
		16 + 8*len(s.U.Data) + // U dims + data
		8 + 8*len(s.Objective) +
		8 + 8*len(s.RelError)
	buf := make([]byte, 0, size)
	le := binary.LittleEndian
	u64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	floats := func(fs []float64) {
		u64(uint64(len(fs)))
		for _, f := range fs {
			u64(math.Float64bits(f))
		}
	}
	u64(s.Fingerprint)
	u64(uint64(len(s.Algo)))
	buf = append(buf, s.Algo...)
	u64(uint64(s.Iteration))
	u64(uint64(s.Seed))
	u64(uint64(s.U.Rows))
	u64(uint64(s.U.Cols))
	for _, f := range s.U.Data {
		u64(math.Float64bits(f))
	}
	floats(s.Objective)
	floats(s.RelError)
	// Version 2 trailer: the observability trace as length-prefixed JSON.
	// JSON (not fixed-width fields) because TraceEvent carries maps and
	// strings and evolves with the obs schema; the CRC still covers it.
	trace, err := json.Marshal(s.Trace)
	if err != nil {
		trace = []byte("null")
	}
	u64(uint64(len(trace)))
	buf = append(buf, trace...)
	return buf
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCheckpointCorrupt)
}

func decode(buf []byte, ver byte) (*State, error) {
	le := binary.LittleEndian
	pos := 0
	u64 := func(what string) (uint64, error) {
		if pos+8 > len(buf) {
			return 0, corrupt("checkpoint: payload truncated reading %s", what)
		}
		v := le.Uint64(buf[pos:])
		pos += 8
		return v, nil
	}
	count := func(what string) (int, error) {
		v, err := u64(what)
		if err != nil {
			return 0, err
		}
		if v > uint64(len(buf)/8) {
			return 0, corrupt("checkpoint: %s count %d exceeds payload", what, v)
		}
		return int(v), nil
	}
	floats := func(what string) ([]float64, error) {
		n, err := count(what)
		if err != nil {
			return nil, err
		}
		fs := make([]float64, n)
		for i := range fs {
			v, err := u64(what)
			if err != nil {
				return nil, err
			}
			fs[i] = math.Float64frombits(v)
		}
		return fs, nil
	}

	s := &State{}
	var err error
	if s.Fingerprint, err = u64("fingerprint"); err != nil {
		return nil, err
	}
	algoLen, err := count("algo length")
	if err != nil {
		return nil, err
	}
	if pos+algoLen > len(buf) {
		return nil, corrupt("checkpoint: payload truncated reading algo")
	}
	s.Algo = string(buf[pos : pos+algoLen])
	pos += algoLen
	iter, err := u64("iteration")
	if err != nil {
		return nil, err
	}
	s.Iteration = int(iter)
	seed, err := u64("seed")
	if err != nil {
		return nil, err
	}
	s.Seed = int64(seed)
	rows, err := count("U rows")
	if err != nil {
		return nil, err
	}
	cols, err := count("U cols")
	if err != nil {
		return nil, err
	}
	if rows < 0 || cols < 0 || (cols != 0 && rows > len(buf)/8/cols) {
		return nil, corrupt("checkpoint: factor shape %dx%d exceeds payload", rows, cols)
	}
	data := make([]float64, rows*cols)
	for i := range data {
		v, err := u64("U data")
		if err != nil {
			return nil, err
		}
		data[i] = math.Float64frombits(v)
	}
	s.U = linalg.NewMatrixFrom(rows, cols, data)
	if s.Objective, err = floats("objective trace"); err != nil {
		return nil, err
	}
	if s.RelError, err = floats("relative-error trace"); err != nil {
		return nil, err
	}
	if ver >= 2 {
		traceLen, err := u64("trace length")
		if err != nil {
			return nil, err
		}
		if traceLen > uint64(len(buf)-pos) {
			return nil, corrupt("checkpoint: trace blob length %d exceeds payload", traceLen)
		}
		blob := buf[pos : pos+int(traceLen)]
		pos += int(traceLen)
		if err := json.Unmarshal(blob, &s.Trace); err != nil {
			return nil, corrupt("checkpoint: trace blob is not valid JSON: %v", err)
		}
	}
	if pos != len(buf) {
		return nil, corrupt("checkpoint: %d trailing payload bytes", len(buf)-pos)
	}
	if len(s.Objective) != len(s.RelError) || s.Iteration < 0 || len(s.Objective) < s.Iteration {
		return nil, corrupt("checkpoint: inconsistent traces (iteration %d, %d objective, %d relerror entries)",
			s.Iteration, len(s.Objective), len(s.RelError))
	}
	return s, nil
}

// Save atomically writes s to path: temp file in the same directory, sync,
// rename. An existing snapshot at path is replaced only after the new one
// is fully on disk.
func Save(path string, s *State) error {
	payload := s.encode()
	le := binary.LittleEndian
	buf := make([]byte, 0, 16+len(payload)+4)
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = le.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(payload))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and verifies a snapshot. I/O failures come back as-is
// (errors.Is(err, os.ErrNotExist) distinguishes "no snapshot yet");
// structural failures wrap ErrCheckpointCorrupt.
func Load(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16+4 {
		return nil, corrupt("checkpoint: file is %d bytes, smaller than any valid snapshot", len(raw))
	}
	if string(raw[:7]) != magic {
		return nil, corrupt("checkpoint: bad magic %q", raw[:7])
	}
	if raw[7] < minVersion || raw[7] > version {
		return nil, corrupt("checkpoint: unsupported version %d (want %d..%d)", raw[7], minVersion, version)
	}
	payloadLen := binary.LittleEndian.Uint64(raw[8:16])
	if payloadLen > maxSnapshotBytes || 16+payloadLen+4 != uint64(len(raw)) {
		return nil, corrupt("checkpoint: payload length %d inconsistent with %d-byte file", payloadLen, len(raw))
	}
	payload := raw[16 : 16+payloadLen]
	wantCRC := binary.LittleEndian.Uint32(raw[16+payloadLen:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, corrupt("checkpoint: CRC mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	return decode(payload, raw[7])
}
