package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
)

func sampleState() *State {
	u := linalg.NewMatrix(4, 3)
	for i := range u.Data {
		u.Data[i] = float64(i) * 1.25e-3
	}
	u.Data[5] = math.Nextafter(1, 2) // a value whose bits matter
	return &State{
		Algo:        "hoqri",
		Fingerprint: 0xdeadbeefcafef00d,
		Iteration:   4,
		Seed:        -42,
		U:           u,
		Objective:   []float64{3.5, 2.25, 2.0 + 1e-16, 1.125},
		RelError:    []float64{0.9, 0.5, 0.25, 0.125},
		Trace: []obs.TraceEvent{
			{Sweep: 3, Objective: 1.125, RelError: 0.125, Fit: 0.875, WallNs: 12345,
				Plans:  map[string]obs.PlanDelta{"s3ttmc.owner": {Invocations: 1, Items: 500, BusyNs: 9000, SpanNs: 10000}},
				Health: []string{"iteration 3: something happened"}},
		},
	}
}

func TestRoundTripBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != want.Algo || got.Fingerprint != want.Fingerprint ||
		got.Iteration != want.Iteration || got.Seed != want.Seed {
		t.Errorf("header fields differ: %+v vs %+v", got, want)
	}
	if got.U.Rows != want.U.Rows || got.U.Cols != want.U.Cols {
		t.Fatalf("U shape %dx%d, want %dx%d", got.U.Rows, got.U.Cols, want.U.Rows, want.U.Cols)
	}
	for i := range want.U.Data {
		if math.Float64bits(got.U.Data[i]) != math.Float64bits(want.U.Data[i]) {
			t.Fatalf("U bit mismatch at %d", i)
		}
	}
	for i := range want.Objective {
		if math.Float64bits(got.Objective[i]) != math.Float64bits(want.Objective[i]) ||
			math.Float64bits(got.RelError[i]) != math.Float64bits(want.RelError[i]) {
			t.Fatalf("trace bit mismatch at %d", i)
		}
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := sampleState()
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	s.Iteration = 5
	s.Objective = append(s.Objective, 1.0)
	s.RelError = append(s.RelError, 0.1)
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 5 || len(got.Objective) != 5 {
		t.Errorf("second snapshot not visible: iter %d, %d entries", got.Iteration, len(got.Objective))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestWriteFileAtomicFailedFill: a fill that fails midway must leave the
// previous file byte-identical and no temp file behind.
func TestWriteFileAtomicFailedFill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.WriteString("previous contents\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fill failed")
	err := WriteFileAtomic(path, func(f *os.File) error {
		if _, err := f.WriteString("half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fill's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous contents\n" {
		t.Errorf("previous file changed to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Errorf("directory holds %s", e.Name())
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("want os.ErrNotExist, got %v", err)
	}
	if errors.Is(err, ErrCheckpointCorrupt) {
		t.Error("a missing file must not be reported as corruption")
	}
}

// Every single-byte corruption and every truncation must surface as
// ErrCheckpointCorrupt, never as a bogus State or a panic.
func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, raw []byte) {
		t.Helper()
		bad := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: want ErrCheckpointCorrupt, got %v", name, err)
		}
	}

	// Flip one byte at a selection of offsets across all regions.
	for _, off := range []int{0, 7, 8, 20, 40, len(pristine) / 2, len(pristine) - 2} {
		raw := append([]byte(nil), pristine...)
		raw[off] ^= 0x5a
		check("flip@"+string(rune('0'+off%10)), raw)
	}
	// Truncations.
	for _, n := range []int{0, 5, 16, len(pristine) - 1} {
		check("truncate", pristine[:n])
	}
	// Oversized length field claiming more than the file holds.
	raw := append([]byte(nil), pristine...)
	raw[8] = 0xff
	raw[14] = 0xff
	check("length bomb", raw)
}

func TestVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[7] = 99
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("future version must be rejected: %v", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) != 1 {
		t.Fatalf("got %d trace events, want 1", len(got.Trace))
	}
	ev, wantEv := got.Trace[0], want.Trace[0]
	if ev.Sweep != wantEv.Sweep || ev.WallNs != wantEv.WallNs || ev.Fit != wantEv.Fit {
		t.Errorf("trace event mismatch: %+v vs %+v", ev, wantEv)
	}
	if d := ev.Plans["s3ttmc.owner"]; d != wantEv.Plans["s3ttmc.owner"] {
		t.Errorf("plan delta mismatch: %+v", d)
	}
	if len(ev.Health) != 1 || ev.Health[0] != wantEv.Health[0] {
		t.Errorf("health events mismatch: %v", ev.Health)
	}
}

// TestVersion1StillLoads rebuilds a pre-trace (version 1) snapshot from a
// current one — strip the length-prefixed JSON trailer, flip the version
// byte, refresh length and CRC — and expects Load to accept it with an
// empty trace.
func TestVersion1StillLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[16 : len(raw)-4]
	traceJSON, err := json.Marshal(want.Trace)
	if err != nil {
		t.Fatal(err)
	}
	v1payload := payload[: len(payload)-8-len(traceJSON) : len(payload)-8-len(traceJSON)]
	v1 := append([]byte(nil), raw[:8]...)
	v1[7] = 1
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(len(v1payload)))
	v1 = append(v1, v1payload...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1payload))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("version-1 snapshot must still load: %v", err)
	}
	if got.Iteration != want.Iteration || len(got.Objective) != len(want.Objective) {
		t.Errorf("v1 fields lost: %+v", got)
	}
	if len(got.Trace) != 0 {
		t.Errorf("v1 snapshot should restore an empty trace, got %d events", len(got.Trace))
	}
}

func TestInconsistentTracesRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	s := sampleState()
	s.RelError = s.RelError[:2] // shorter than Objective
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("mismatched trace lengths must be rejected: %v", err)
	}
}
